package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrInteriorCorruption is the sentinel matched by errors.Is when a
// scan hits a corrupt record with sound records beyond it. The actual
// error value is an *InteriorCorruptionError carrying the offsets.
var ErrInteriorCorruption = errors.New("wal: interior corruption")

// InteriorCorruptionError reports a corrupt record that is *not* a torn
// tail: complete, CRC-clean records exist past the damage, so treating
// the corruption as end-of-log would silently drop committed data.
// Offset is where the damage starts; Resume is the offset of the next
// sound record.
type InteriorCorruptionError struct {
	Offset int64
	Resume int64
}

func (e *InteriorCorruptionError) Error() string {
	return fmt.Sprintf("wal: interior corruption at offset %d (sound records resume at %d)", e.Offset, e.Resume)
}

// Is makes errors.Is(err, ErrInteriorCorruption) match.
func (e *InteriorCorruptionError) Is(target error) bool { return target == ErrInteriorCorruption }

// CorruptRange is one damaged byte range skipped by a salvage scan:
// [From, To) held no decodable record.
type CorruptRange struct {
	From int64
	To   int64
}

// Scanner iterates over the standard-encoded records of a log stream.
// It tolerates a torn final record (a crash mid-append): scanning stops
// cleanly and TornAt reports the offset at which the log should be
// truncated before further use. A corrupt record with sound records
// beyond it ends the scan with *InteriorCorruptionError instead, unless
// salvage mode is enabled, in which case the damaged range is recorded
// and iteration continues at the next sound record.
//
// The read buffer is reused across records: reads land in its spare
// capacity, consumed bytes are compacted away in place, and it only
// grows (doubling) when a record or a corruption probe needs more
// than it holds.
type Scanner struct {
	r       io.Reader
	base    int64 // stream offset of buf[0]
	buf     []byte
	pos     int // consumed bytes within buf
	err     error
	torn    bool
	tornAt  int64
	salvage bool
	holes   []CorruptRange
	view    TxRecord // NextView's record, and probeSound's scratch
}

// readChunk is the least free space a read is given: the buffer
// doubles when less than this is left past its data.
const readChunk = 64 << 10

// NewScanner returns a Scanner reading records from r. base is the
// log offset corresponding to the start of r (pass 0 when reading from
// the head).
func NewScanner(r io.Reader, base int64) *Scanner {
	return &Scanner{r: r, base: base}
}

// Salvage switches the scanner into salvage mode: interior corruption
// is skipped (and reported via Corrupt) rather than ending the scan.
func (s *Scanner) Salvage() { s.salvage = true }

// Corrupt returns the damaged ranges skipped so far in salvage mode.
func (s *Scanner) Corrupt() []CorruptRange { return s.holes }

// Next returns the next record, or io.EOF after the last complete
// record. A torn tail also ends iteration with io.EOF; check Torn.
// Corruption with sound records beyond it returns
// *InteriorCorruptionError (match with errors.Is(err,
// ErrInteriorCorruption)) unless salvage mode is on.
func (s *Scanner) Next() (*TxRecord, error) {
	tx := &TxRecord{}
	if err := s.scan(tx, false); err != nil {
		return nil, err
	}
	return tx, nil
}

// NextView is Next without the copies, for scans that read record
// metadata and keep nothing: the returned record belongs to the
// scanner and is overwritten by the next call, and its range Data
// alias the read buffer, which the next call may also overwrite.
// Checksums and corruption handling are exactly those of Next.
func (s *Scanner) NextView() (*TxRecord, error) {
	if err := s.scan(&s.view, true); err != nil {
		return nil, err
	}
	return &s.view, nil
}

// scan decodes the next record into tx (see decodeStandard for view).
func (s *Scanner) scan(tx *TxRecord, view bool) error {
	if s.err != nil {
		return s.err
	}
	for {
		n, err := decodeStandard(s.buf[s.pos:], tx, view)
		switch {
		case err == nil:
			s.pos += n
			return nil
		case errors.Is(err, ErrTruncated):
			if readErr := s.fill(); readErr != nil {
				if readErr == io.EOF {
					if s.pos < len(s.buf) {
						// Partial record at end of stream: torn tail.
						s.torn = true
						s.tornAt = s.base + int64(s.pos)
					}
					s.err = io.EOF
					return io.EOF
				}
				s.err = fmt.Errorf("wal: read log: %w", readErr)
				return s.err
			}
		case errors.Is(err, ErrBadCRC) || errors.Is(err, ErrBadMagic):
			// Probe forward: a complete record past the damage means
			// interior corruption (real data would be lost by stopping
			// here); no such record means the familiar torn tail.
			at, ok, probeErr := s.probeSound()
			if probeErr != nil {
				s.err = fmt.Errorf("wal: read log: %w", probeErr)
				return s.err
			}
			if !ok {
				s.torn = true
				s.tornAt = s.base + int64(s.pos)
				s.err = io.EOF
				return io.EOF
			}
			from := s.base + int64(s.pos)
			to := s.base + int64(at)
			if !s.salvage {
				s.err = &InteriorCorruptionError{Offset: from, Resume: to}
				return s.err
			}
			s.holes = append(s.holes, CorruptRange{From: from, To: to})
			s.pos = at
		default:
			s.err = err
			return err
		}
	}
}

// probeSound searches past the corrupt record at s.pos for the next
// offset holding a complete, CRC-clean record, returning its buffer
// index. ok is false when the rest of the stream holds no provably
// sound record (tail corruption). Read errors other than EOF abort.
func (s *Scanner) probeSound() (at int, ok bool, err error) {
	probe := s.pos + 1
	for {
		// Make sure a 4-byte magic window is buffered at probe.
		for probe+4 > len(s.buf) {
			if merr := s.more(); merr != nil {
				if merr == io.EOF {
					return 0, false, nil
				}
				return 0, false, merr
			}
		}
		if binary.LittleEndian.Uint32(s.buf[probe:]) != txMagic {
			probe++
			continue
		}
		_, derr := decodeStandard(s.buf[probe:], &s.view, true)
		switch {
		case derr == nil:
			return probe, true, nil
		case errors.Is(derr, ErrTruncated):
			// Could be a real record spanning the buffered window —
			// pull more data and retry; at end of stream the candidate
			// is unprovable, so move past it.
			if merr := s.more(); merr != nil {
				if merr == io.EOF {
					probe++
					continue
				}
				return 0, false, merr
			}
		default:
			// Decodes as garbage (bad CRC, bad inner magic, bogus
			// lengths): a coincidental magic match inside the damage.
			probe++
		}
	}
}

// fill reads more data into the buffer, compacting consumed bytes.
func (s *Scanner) fill() error {
	if s.pos > 0 {
		s.base += int64(s.pos)
		s.buf = append(s.buf[:0], s.buf[s.pos:]...)
		s.pos = 0
	}
	return s.more()
}

// more reads the next chunk of the stream into the buffer's spare
// capacity without compacting, so probe indices into buf stay valid.
// The buffer doubles first when less than readChunk is free.
func (s *Scanner) more() error {
	if cap(s.buf)-len(s.buf) < readChunk {
		grown := make([]byte, len(s.buf), max(2*cap(s.buf), len(s.buf)+readChunk))
		copy(grown, s.buf)
		s.buf = grown
	}
	n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
	if n > 0 {
		s.buf = s.buf[:len(s.buf)+n]
		return nil
	}
	if err == nil {
		err = io.EOF
	}
	return err
}

// Torn reports whether the scan ended at an incomplete or corrupt
// record, and at which log offset the valid prefix ends.
func (s *Scanner) Torn() (bool, int64) { return s.torn, s.tornAt }

// Pos returns the stream offset immediately after the last record
// returned by Next — the offset at which the next record starts.
// Recovery uses it to note the physical position of a checkpoint
// marker while streaming.
func (s *Scanner) Pos() int64 { return s.base + int64(s.pos) }

// ReadAll scans every complete record from r (starting at offset base)
// and returns them along with torn-tail information. Interior
// corruption surfaces as *InteriorCorruptionError.
func ReadAll(r io.Reader, base int64) (txs []*TxRecord, torn bool, tornAt int64, err error) {
	sc := NewScanner(r, base)
	for {
		tx, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, false, 0, err
		}
		txs = append(txs, tx)
	}
	torn, tornAt = sc.Torn()
	return txs, torn, tornAt, nil
}

// SalvageAll scans r tolerating interior corruption: damaged ranges
// are skipped and reported, and every sound record on either side is
// returned. A trailing torn record is reported as usual.
func SalvageAll(r io.Reader, base int64) (txs []*TxRecord, holes []CorruptRange, torn bool, tornAt int64, err error) {
	sc := NewScanner(r, base)
	sc.Salvage()
	for {
		tx, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, false, 0, err
		}
		txs = append(txs, tx)
	}
	torn, tornAt = sc.Torn()
	return txs, sc.Corrupt(), torn, tornAt, nil
}

// ReadDevice scans all complete records currently on dev.
func ReadDevice(dev Device) ([]*TxRecord, error) {
	rc, err := dev.Open(0)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	txs, _, _, err := ReadAll(rc, 0)
	return txs, err
}
