package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Standard (durable) encoding. Entry layout, all little-endian:
//
//	+0   magic      u32  "LBTX" (0x4c425458)
//	+4   version    u16
//	+6   flags      u16  bit0 = checkpoint marker
//	+8   node       u32
//	+12  txSeq      u64
//	+20  nLocks     u32
//	+24  nRanges    u32
//	+28  bodyLen    u64  bytes of lock + range sections
//	+36  locks      nLocks * 24 bytes
//	     ranges     nRanges * (104-byte header + data)
//	+36+bodyLen  crc u32 (IEEE, over bytes [0, 36+bodyLen))
//
// The 104-byte range header deliberately matches the size of RVM's
// standard range header, so the durable-log volume of "standard RVM" in
// Figure 8 and the header-compression ablation are faithful.
const (
	txMagic        = 0x4c425458 // "LBTX"
	rangeMagic     = 0x4c425247 // "LBRG"
	walVersion     = 1
	entryHeaderLen = 36
	lockRecLen     = 24
	// StdRangeHeaderLen is the size of a standard new-value range header
	// (matches the 104-byte header the paper reports for RVM, §3.2).
	StdRangeHeaderLen = 104

	flagCheckpoint = 1 << 0
	// flagCkptLSN marks a checkpoint record whose body ends with an
	// 8-byte checkpoint LSN (the §3.5 cut point). Carried as a separate
	// flag so pre-LSN marker records still decode.
	flagCkptLSN = 1 << 1

	ckptLSNLen = 8
)

// StandardSize returns the encoded size of tx in the standard format.
func StandardSize(tx *TxRecord) int {
	n := entryHeaderLen + len(tx.Locks)*lockRecLen + 4
	for _, r := range tx.Ranges {
		n += StdRangeHeaderLen + len(r.Data)
	}
	if tx.Checkpoint {
		n += ckptLSNLen
	}
	return n
}

// AppendStandard appends the standard encoding of tx to buf and returns
// the extended slice.
func AppendStandard(buf []byte, tx *TxRecord) []byte {
	start := len(buf)
	bodyLen := uint64(len(tx.Locks) * lockRecLen)
	for _, r := range tx.Ranges {
		bodyLen += StdRangeHeaderLen + uint64(len(r.Data))
	}
	var flags uint16
	if tx.Checkpoint {
		flags |= flagCheckpoint | flagCkptLSN
		bodyLen += ckptLSNLen
	}
	var hdr [entryHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], txMagic)
	binary.LittleEndian.PutUint16(hdr[4:], walVersion)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint32(hdr[8:], tx.Node)
	binary.LittleEndian.PutUint64(hdr[12:], tx.TxSeq)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(tx.Locks)))
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(tx.Ranges)))
	binary.LittleEndian.PutUint64(hdr[28:], bodyLen)
	buf = append(buf, hdr[:]...)

	var lrec [lockRecLen]byte
	for _, l := range tx.Locks {
		binary.LittleEndian.PutUint32(lrec[0:], l.LockID)
		var lf uint32
		if l.Wrote {
			lf = 1
		}
		binary.LittleEndian.PutUint32(lrec[4:], lf)
		binary.LittleEndian.PutUint64(lrec[8:], l.Seq)
		binary.LittleEndian.PutUint64(lrec[16:], l.PrevWriteSeq)
		buf = append(buf, lrec[:]...)
	}

	var rhdr [StdRangeHeaderLen]byte
	for _, r := range tx.Ranges {
		binary.LittleEndian.PutUint32(rhdr[0:], rangeMagic)
		binary.LittleEndian.PutUint32(rhdr[4:], r.Region)
		binary.LittleEndian.PutUint32(rhdr[8:], uint32(len(r.Data)))
		binary.LittleEndian.PutUint64(rhdr[12:], r.Off)
		// Bytes 20..104 are reserved padding, zeroed, mirroring the
		// bookkeeping fields of RVM's 104-byte header that coherency
		// does not need.
		for i := 20; i < StdRangeHeaderLen; i++ {
			rhdr[i] = 0
		}
		buf = append(buf, rhdr[:]...)
		buf = append(buf, r.Data...)
	}
	if tx.Checkpoint {
		var lsn [ckptLSNLen]byte
		binary.LittleEndian.PutUint64(lsn[:], tx.CheckpointLSN)
		buf = append(buf, lsn[:]...)
	}

	crc := crc32.ChecksumIEEE(buf[start:])
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// DecodeStandard decodes one standard entry from the front of b,
// returning the record and the number of bytes consumed. It returns
// ErrTruncated when b holds a prefix of a record (a torn tail) and
// ErrBadCRC / ErrBadMagic on corruption.
func DecodeStandard(b []byte) (*TxRecord, int, error) {
	tx := &TxRecord{}
	n, err := decodeStandard(b, tx, false)
	if err != nil {
		return nil, 0, err
	}
	return tx, n, nil
}

// decodeStandard decodes one standard entry from the front of b into
// tx. With view set it reuses the backing arrays of tx.Locks and
// tx.Ranges and points range Data into b instead of copying it; the
// checksum and structure are verified either way.
func decodeStandard(b []byte, tx *TxRecord, view bool) (int, error) {
	if len(b) < entryHeaderLen {
		return 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[0:]) != txMagic {
		return 0, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != walVersion {
		return 0, fmt.Errorf("wal: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(b[6:])
	nLocks := binary.LittleEndian.Uint32(b[20:])
	nRanges := binary.LittleEndian.Uint32(b[24:])
	bodyLen := binary.LittleEndian.Uint64(b[28:])
	total := entryHeaderLen + int(bodyLen) + 4
	if bodyLen > 1<<40 || len(b) < total {
		return 0, ErrTruncated
	}
	wantCRC := binary.LittleEndian.Uint32(b[total-4:])
	if crc32.ChecksumIEEE(b[:total-4]) != wantCRC {
		return 0, ErrBadCRC
	}

	tx.Node = binary.LittleEndian.Uint32(b[8:])
	tx.TxSeq = binary.LittleEndian.Uint64(b[12:])
	tx.Checkpoint = flags&flagCheckpoint != 0
	tx.CheckpointLSN = 0
	p := entryHeaderLen
	if int(nLocks)*lockRecLen > int(bodyLen) {
		return 0, fmt.Errorf("wal: lock section overruns body")
	}
	if view && cap(tx.Locks) >= int(nLocks) {
		tx.Locks = tx.Locks[:nLocks]
	} else {
		tx.Locks = make([]LockRec, nLocks)
	}
	for i := range tx.Locks {
		tx.Locks[i] = LockRec{
			LockID:       binary.LittleEndian.Uint32(b[p:]),
			Wrote:        binary.LittleEndian.Uint32(b[p+4:])&1 != 0,
			Seq:          binary.LittleEndian.Uint64(b[p+8:]),
			PrevWriteSeq: binary.LittleEndian.Uint64(b[p+16:]),
		}
		p += lockRecLen
	}
	if view && cap(tx.Ranges) >= int(nRanges) {
		tx.Ranges = tx.Ranges[:0]
	} else {
		tx.Ranges = make([]RangeRec, 0, nRanges)
	}
	for i := uint32(0); i < nRanges; i++ {
		if p+StdRangeHeaderLen > total-4 {
			return 0, fmt.Errorf("wal: range header overruns body")
		}
		if binary.LittleEndian.Uint32(b[p:]) != rangeMagic {
			return 0, ErrBadMagic
		}
		region := binary.LittleEndian.Uint32(b[p+4:])
		dataLen := int(binary.LittleEndian.Uint32(b[p+8:]))
		off := binary.LittleEndian.Uint64(b[p+12:])
		p += StdRangeHeaderLen
		if p+dataLen > total-4 {
			return 0, fmt.Errorf("wal: range data overruns body")
		}
		data := b[p : p+dataLen : p+dataLen]
		if !view {
			data = make([]byte, dataLen)
			copy(data, b[p:p+dataLen])
		}
		p += dataLen
		tx.Ranges = append(tx.Ranges, RangeRec{Region: region, Off: off, Data: data})
	}
	if flags&flagCkptLSN != 0 {
		if p+ckptLSNLen > total-4 {
			return 0, fmt.Errorf("wal: checkpoint LSN overruns body")
		}
		tx.CheckpointLSN = binary.LittleEndian.Uint64(b[p:])
		p += ckptLSNLen
	}
	if p != total-4 {
		return 0, fmt.Errorf("wal: body length mismatch (%d != %d)", p, total-4)
	}
	if err := tx.validate(); err != nil {
		return 0, err
	}
	return total, nil
}
