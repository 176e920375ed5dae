package rvm

import (
	"errors"
	"fmt"
	"io"

	"lbc/internal/parapply"
	"lbc/internal/wal"
)

// RecoverOptions controls the recovery procedure.
type RecoverOptions struct {
	// TrimLog resets the log after its records have been applied to the
	// permanent images (they are then redundant).
	TrimLog bool
	// TruncateTorn removes a torn tail (an interrupted append) from the
	// log. Recovery always *ignores* a torn tail; this additionally
	// repairs the device. Implied by TrimLog.
	TruncateTorn bool
	// Workers sets the parallelism of the replay. Records on disjoint
	// lock chains install concurrently; each chain stays sequential
	// (internal/parapply). 0 picks a default; 1 degenerates to the
	// serial log-order replay.
	Workers int
	// Quarantine salvages a log with *interior* corruption: damaged
	// ranges are skipped (reported in RecoverResult.Quarantined) and
	// every sound record on either side is replayed. The records lost
	// in the holes must then be re-fetched from peers (coherency
	// CatchUp) before the node rejoins. Without Quarantine interior
	// corruption fails recovery loudly — it is real data loss, not a
	// torn tail.
	Quarantine bool
}

// RecoverResult summarizes what recovery did.
type RecoverResult struct {
	Records      int   // committed records replayed
	BytesApplied int   // new-value bytes written into images
	Torn         bool  // log ended in a torn/corrupt record
	TornAt       int64 // offset of the valid prefix end when Torn

	// Checkpointed reports that a durable checkpoint marker was found;
	// replay then started at ReplayFrom (just past the last marker)
	// instead of offset 0, and SkippedRecords counts the committed
	// records below the cut that the marker made redundant.
	Checkpointed   bool
	ReplayFrom     int64
	SkippedRecords int
	// CheckpointLSN is the cut point recorded inside the marker (the
	// log offset at which it was appended). After a head trim it no
	// longer equals the marker's physical offset; recovery positions by
	// the physical offset and reports the LSN for observability.
	CheckpointLSN uint64
	// Quarantined lists the interior-corrupt byte ranges skipped when
	// RecoverOptions.Quarantine was set. Non-empty means committed
	// records may be missing locally and must be re-fetched from peers.
	Quarantined []wal.CorruptRange
}

// Recover replays committed records in the log into the permanent
// region images of the data store (the standard write-ahead recovery
// procedure: the log is the truth, the database file lags it).
//
// The log is streamed twice through wal.Scanner — nothing is buffered
// whole. Pass one locates the last durable checkpoint marker and sizes
// the images the replay will touch; the marker's invariant (§3.5) is
// that every record below it is already reflected in the permanent
// images, so pass two re-opens the device just past the marker and
// replays only the tail. With no marker the replay starts at offset 0,
// as before. A torn or corrupt marker never decodes, so a crash while
// the marker was being appended safely falls back to the previous
// start point — replaying records below an incomplete checkpoint is
// redundant but harmless (REDO is idempotent).
//
// The replay runs through the dependency scheduler (internal/parapply):
// records on disjoint lock chains install concurrently while each
// chain keeps its §3.4 sequence order, which is equivalent to the
// serial log-order replay because only same-chain records can overlap
// in the address space. In the distributed configuration the log must
// first be merged from the per-node logs (internal/merge, §3.4).
func Recover(log wal.Device, data DataStore, opts RecoverOptions) (*RecoverResult, error) {
	// Pass one: stream the whole log to find the last checkpoint marker
	// and pre-size every image the tail replay touches, so the parallel
	// install phase never reallocates a region (workers copy into
	// stable backing arrays). It keeps no record, so it scans views
	// that alias the scanner's buffer instead of copying range data.
	rc, err := log.Open(0)
	if err != nil {
		return nil, fmt.Errorf("rvm: open log for recovery: %w", err)
	}
	sc := wal.NewScanner(rc, 0)
	if opts.Quarantine {
		sc.Salvage()
	}
	res := &RecoverResult{}
	need := map[uint32]uint64{} // region -> required image size
	var tailRecords, skipped int
	for {
		tx, err := sc.NextView()
		if err == io.EOF {
			break
		}
		if err != nil {
			rc.Close()
			return nil, err
		}
		if tx.Checkpoint {
			// Everything scanned so far is reflected in the images the
			// marker vouches for: restart the tail accounting here.
			res.Checkpointed = true
			res.ReplayFrom = sc.Pos()
			res.CheckpointLSN = tx.CheckpointLSN
			skipped += tailRecords
			tailRecords = 0
			need = map[uint32]uint64{}
			continue
		}
		tailRecords++
		for _, rec := range tx.Ranges {
			if rec.End() > need[rec.Region] {
				need[rec.Region] = rec.End()
			}
		}
	}
	res.Torn, res.TornAt = sc.Torn()
	res.SkippedRecords = skipped
	res.Quarantined = sc.Corrupt()
	rc.Close()

	images := map[uint32][]byte{}
	dirty := map[uint32]bool{}
	for id, atLeast := range need {
		img, err := data.LoadRegion(id)
		if err != nil && !errors.Is(err, ErrNoRegion) {
			return nil, fmt.Errorf("rvm: recovery load region %d: %w", id, err)
		}
		if uint64(len(img)) < atLeast {
			grown := make([]byte, atLeast)
			copy(grown, img)
			img = grown
		}
		images[id] = img
		dirty[id] = true
	}

	// Pass two: stream the tail from the replay start and install. The
	// records must be collected for the dependency scheduler, but only
	// the post-checkpoint tail is ever held in memory.
	var live []*wal.TxRecord
	if tailRecords > 0 {
		rc, err = log.Open(res.ReplayFrom)
		if err != nil {
			return nil, fmt.Errorf("rvm: open log tail at %d: %w", res.ReplayFrom, err)
		}
		sc = wal.NewScanner(rc, res.ReplayFrom)
		if opts.Quarantine {
			sc.Salvage()
		}
		live = make([]*wal.TxRecord, 0, tailRecords)
		for {
			tx, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				rc.Close()
				return nil, err
			}
			if tx.Checkpoint {
				continue
			}
			live = append(live, tx)
		}
		rc.Close()
	}

	if _, err := parapply.Replay(live, opts.Workers, func(_ int, tx *wal.TxRecord) error {
		for _, rec := range tx.Ranges {
			copy(images[rec.Region][rec.Off:rec.End()], rec.Data)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// Duplicate identities the scheduler suppressed carried identical
	// bytes, so count every live record the way serial replay did.
	res.Records = len(live)
	for _, tx := range live {
		for _, rec := range tx.Ranges {
			res.BytesApplied += len(rec.Data)
		}
	}

	for id := range dirty {
		if err := data.StoreRegion(id, images[id]); err != nil {
			return nil, fmt.Errorf("rvm: recovery store region %d: %w", id, err)
		}
	}
	if len(dirty) > 0 {
		if err := data.Sync(); err != nil {
			return nil, err
		}
	}

	switch {
	case opts.TrimLog:
		if err := log.Reset(); err != nil {
			return nil, fmt.Errorf("rvm: trim log: %w", err)
		}
	case opts.TruncateTorn && res.Torn:
		if err := log.Truncate(res.TornAt); err != nil {
			return nil, fmt.Errorf("rvm: truncate torn tail: %w", err)
		}
	}
	return res, nil
}
