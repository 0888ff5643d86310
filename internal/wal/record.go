// Package wal gives the live MOD a durable spine: a checksummed,
// length-prefixed write-ahead log of mod.Update batches plus periodic
// snapshot persistence of the whole store, such that Recover replays
// snapshot + log tail into a store byte-identical to the pre-crash one.
//
// Durability protocol (the modserver ingest path follows it):
//
//  1. Append the update batch to the log (and fsync when Options.Sync).
//  2. Apply the batch to the in-memory store.
//  3. Optionally snapshot: write the post-apply store to a temp file,
//     fsync, rename into place, start a fresh log, then garbage-collect
//     the superseded snapshot+log pair.
//
// Because Append happens before apply, every applied batch is on disk;
// because mod.Store.ApplyUpdates is deterministic (including which prefix
// of a batch survives a mid-batch validation error), replaying the same
// batches over the snapshot reproduces the exact pre-crash state — same
// float bits, same per-object plans. A crash between rename and GC leaves
// both generations on disk; Recover prefers the newest loadable snapshot,
// so the protocol is safe at every interleaving.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/mod"
	"repro/internal/trajectory"
)

// Record codec errors.
var (
	// ErrCorruptRecord reports a record whose frame is present but whose
	// payload fails the checksum or does not decode — corruption, not a
	// clean truncation.
	ErrCorruptRecord = errors.New("wal: corrupt record")
	// ErrTornRecord reports a record cut short by a crash mid-write: the
	// frame or payload ends before its declared length.
	ErrTornRecord = errors.New("wal: torn record")
	// ErrRecordTooLarge reports a record whose declared payload exceeds
	// MaxRecordBytes — treated as corruption (a real batch never gets
	// there; a flipped length byte easily does).
	ErrRecordTooLarge = errors.New("wal: record exceeds size limit")
)

// MaxRecordBytes caps a single record's payload. A batch of 10k updates
// with 16-vertex plans is ~4 MiB; 64 MiB leaves two orders of headroom
// while keeping a corrupted length prefix from driving a giant allocation.
const MaxRecordBytes = 64 << 20

// recordHeaderSize is the fixed frame prefix: uint32 LE payload length
// followed by uint32 LE CRC-32C (Castagnoli) of the payload.
const recordHeaderSize = 8

// Mode bitmask of the v3 per-update mode byte.
const (
	modeTags   = 1 // a tag section follows (Update.Tags non-nil)
	modeRetire = 2 // the update retires the OID
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and the conventional choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the framed, checksummed encoding of one update
// batch to dst and returns the extended slice. The payload layout (v3,
// logs headed by UTWAL3) is
//
//	uvarint  #updates
//	per update:
//	  varint   OID
//	  uvarint  #vertices
//	  per vertex: 3 × uint64 LE (IEEE-754 bits of X, Y, T)
//	  uvarint  mode bitmask — bit 0: tag set follows (Tags non-nil);
//	           bit 1: retire. 0 means neither (Tags nil).
//	  if bit 0: uvarint #tags, per tag uvarint length + raw bytes
//
// Raw float bits (not decimal text) are what makes replay byte-identical,
// and the explicit tag bit preserves the Update.Tags tri-state (nil = no
// change, empty = clear) across a crash. The v2 layout (UTWAL2) is
// identical except the mode byte is 0/1 only — v2 logs replay but cannot
// take retire records, so Open rotates them like v1.
func AppendRecord(dst []byte, batch []mod.Update) ([]byte, error) {
	head := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for _, u := range batch {
		dst = binary.AppendVarint(dst, u.OID)
		dst = binary.AppendUvarint(dst, uint64(len(u.Verts)))
		for _, v := range u.Verts {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.X))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Y))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.T))
		}
		var mode byte
		if u.Tags != nil {
			mode |= modeTags
		}
		if u.Retire {
			mode |= modeRetire
		}
		dst = append(dst, mode)
		if u.Tags != nil {
			dst = binary.AppendUvarint(dst, uint64(len(*u.Tags)))
			for _, tag := range *u.Tags {
				dst = binary.AppendUvarint(dst, uint64(len(tag)))
				dst = append(dst, tag...)
			}
		}
	}
	payload := dst[head+recordHeaderSize:]
	if len(payload) > MaxRecordBytes {
		return dst[:head], fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(dst[head:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[head+4:], crc32.Checksum(payload, crcTable))
	return dst, nil
}

// decodeRecord decodes the first record framed at the start of b, in the
// payload layout of version ver: 3 decodes the current bitmask-mode
// layout, 2 the UTWAL2 layout whose mode byte is 0/1 only, and 1 the
// legacy UTWAL1 layout with no tag section at all. It returns the batch
// and the number of bytes consumed. Errors classify the failure:
// ErrTornRecord when b ends before the declared frame does (a crash tail),
// ErrCorruptRecord / ErrRecordTooLarge when the frame is complete but
// wrong (checksum mismatch, trailing garbage, implausible counts). An
// empty b returns (nil, 0, nil): the clean end of a log.
func decodeRecord(b []byte, ver int) (batch []mod.Update, n int, err error) {
	if len(b) == 0 {
		return nil, 0, nil
	}
	if len(b) < recordHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d-byte trailing frame header", ErrTornRecord, len(b))
	}
	plen := binary.LittleEndian.Uint32(b)
	want := binary.LittleEndian.Uint32(b[4:])
	if plen > MaxRecordBytes {
		return nil, 0, fmt.Errorf("%w: declared payload %d bytes", ErrRecordTooLarge, plen)
	}
	if uint32(len(b)-recordHeaderSize) < plen {
		return nil, 0, fmt.Errorf("%w: payload %d/%d bytes on disk", ErrTornRecord, len(b)-recordHeaderSize, plen)
	}
	payload := b[recordHeaderSize : recordHeaderSize+int(plen)]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, 0, fmt.Errorf("%w: checksum %08x, frame declares %08x", ErrCorruptRecord, got, want)
	}
	batch, err = decodePayload(payload, ver)
	if err != nil {
		return nil, 0, err
	}
	return batch, recordHeaderSize + int(plen), nil
}

// decodePayload decodes a checksum-verified payload. Every structural
// violation is ErrCorruptRecord: the checksum already passed, so a bad
// count or short buffer means the record was written wrong, not damaged.
func decodePayload(p []byte, ver int) ([]mod.Update, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, fmt.Errorf("%w: unreadable batch count", ErrCorruptRecord)
	}
	p = p[n:]
	// A non-empty update is ≥ 2 bytes (OID varint + vertex count); the
	// bound rejects counts a flipped bit inflated past the payload.
	if count > uint64(len(p))+1 {
		return nil, fmt.Errorf("%w: implausible batch count %d", ErrCorruptRecord, count)
	}
	batch := make([]mod.Update, 0, count)
	for i := uint64(0); i < count; i++ {
		oid, n := binary.Varint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: update %d: unreadable OID", ErrCorruptRecord, i)
		}
		p = p[n:]
		nv, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, fmt.Errorf("%w: update %d: unreadable vertex count", ErrCorruptRecord, i)
		}
		p = p[n:]
		if nv > uint64(len(p))/24 {
			return nil, fmt.Errorf("%w: update %d: %d vertices exceed payload", ErrCorruptRecord, i, nv)
		}
		verts := make([]trajectory.Vertex, nv)
		for j := range verts {
			verts[j] = trajectory.Vertex{
				X: math.Float64frombits(binary.LittleEndian.Uint64(p)),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
				T: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
			}
			p = p[24:]
		}
		u := mod.Update{OID: oid, Verts: verts}
		if ver >= 2 {
			maxMode := uint64(1)
			if ver >= 3 {
				maxMode = modeTags | modeRetire
			}
			mode, n := binary.Uvarint(p)
			if n <= 0 || mode > maxMode {
				return nil, fmt.Errorf("%w: update %d: bad tag mode", ErrCorruptRecord, i)
			}
			p = p[n:]
			u.Retire = mode&modeRetire != 0
			if mode&modeTags != 0 {
				nt, n := binary.Uvarint(p)
				if n <= 0 {
					return nil, fmt.Errorf("%w: update %d: unreadable tag count", ErrCorruptRecord, i)
				}
				p = p[n:]
				// A tag is ≥ 1 byte of length prefix.
				if nt > uint64(len(p))+1 {
					return nil, fmt.Errorf("%w: update %d: implausible tag count %d", ErrCorruptRecord, i, nt)
				}
				tags := make([]string, 0, nt)
				for j := uint64(0); j < nt; j++ {
					tl, n := binary.Uvarint(p)
					if n <= 0 || tl > uint64(len(p)-n) {
						return nil, fmt.Errorf("%w: update %d: tag %d exceeds payload", ErrCorruptRecord, i, j)
					}
					p = p[n:]
					tags = append(tags, string(p[:tl]))
					p = p[tl:]
				}
				u.Tags = &tags
			}
		}
		batch = append(batch, u)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptRecord, len(p))
	}
	return batch, nil
}
