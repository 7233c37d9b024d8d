package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
)

// WALFile is the name of the mutation write-ahead log inside a store
// directory. The segment garbage collector only matches "shard-*.seg", so
// the log survives every rewrite.
const WALFile = "wal.log"

// walMagic opens every WAL batch record: the bytes "GWAL" read as a
// little-endian uint32.
const walMagic uint32 = 0x4C415747

// walMutBytes is the fixed encoding size of one mutation inside a batch
// payload: a one-byte kind followed by U, V and Label as little-endian
// 64-bit integers.
const walMutBytes = 1 + 3*8

// WALBatch is one decoded write-ahead log record: the mutations of one
// logged batch and the store epoch they were logged under. Recovery replays
// only batches whose Epoch matches the manifest — older ones were already
// folded into the durable snapshot by the commit that bumped the epoch.
type WALBatch struct {
	// Epoch is the manifest epoch current when the batch was appended.
	Epoch uint64
	// Muts are the batch's mutations in application order.
	Muts []graph.Mutation
}

// WAL is an append-only mutation log with CRC-framed, epoch-stamped batch
// records. The engine appends every acknowledged mutation batch before its
// effects can reach a committed snapshot, and resets the log after each
// successful WriteUpdate commit; OpenDB replays the tail onto the last
// durable epoch after a crash. A WAL is not safe for concurrent use; the
// engine serializes mutations already.
type WAL struct {
	path  string
	f     *os.File
	epoch uint64

	// broken latches a failed append: the record may be torn, and anything
	// written after a torn record is unreachable to recovery, so further
	// appends must fail fast until a Reset truncates the file.
	broken bool
}

// OpenWAL opens (creating if absent) the write-ahead log of a store
// directory, stamping subsequent appends with the given manifest epoch.
func OpenWAL(dir string, epoch uint64) (*WAL, error) {
	path := filepath.Join(dir, WALFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening WAL: %w", err)
	}
	return &WAL{path: path, f: f, epoch: epoch}, nil
}

// Append logs one mutation batch and fsyncs it. Only after Append returns
// may the caller acknowledge the batch as durable. An empty batch is a
// no-op. A failed append latches the log as broken — see the broken field —
// until the next Reset.
func (w *WAL) Append(muts []graph.Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	if w.f == nil {
		return errors.New("store: append to closed WAL")
	}
	if w.broken {
		return errors.New("store: WAL is broken by an earlier failed append; commit to reset it")
	}
	rec := appendWALRecord(nil, w.epoch, muts)
	if ferr := fireFault("wal-append", WALFile); ferr != nil {
		w.f.Write(rec[:len(rec)/2])
		w.broken = true
		return ferr
	}
	if _, err := w.f.Write(rec); err != nil {
		w.broken = true
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	if ferr := fireFault("wal-sync", WALFile); ferr != nil {
		w.broken = true
		return ferr
	}
	t := obs.StartTimer()
	if err := w.f.Sync(); err != nil {
		w.broken = true
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	t.ObserveInto(mWALFsync)
	mWALAppends.Inc()
	mWALMutations.Add(uint64(len(muts)))
	return nil
}

// appendWALRecord appends to dst the record of one batch logged under the
// given epoch, as Append writes it and ReadWAL decodes it: the magic, the
// payload's length, the payload — epoch, mutation count, and every mutation
// in walMutBytes — and the payload's CRC-32C.
func appendWALRecord(dst []byte, epoch uint64, muts []graph.Mutation) []byte {
	plen := 8 + 4 + len(muts)*walMutBytes
	dst = slices.Grow(dst, 8+plen+4)
	dst = binary.LittleEndian.AppendUint32(dst, walMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(muts)))
	for _, m := range muts {
		dst = append(dst, byte(m.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.U))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.V))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(m.Label))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// Reset truncates the log after a successful commit and stamps subsequent
// appends with the new epoch. Every logged batch is now folded into the
// durable snapshot, so the records — including any torn one that broke the
// log — are dead weight.
func (w *WAL) Reset(epoch uint64) error {
	if w.f == nil {
		return errors.New("store: reset of closed WAL")
	}
	if err := fireFault("wal-reset", WALFile); err != nil {
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating WAL: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing truncated WAL: %w", err)
	}
	w.epoch = epoch
	w.broken = false
	return nil
}

// Close closes the log file. Closing twice is a no-op.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadWAL decodes the write-ahead log of a store directory into its batch
// records. A missing log means no batches. Decoding stops — without error —
// at the first record a crash tore or never finished: everything before it
// was fsynced by Append before being acknowledged, and nothing after it can
// be trusted (or was ever acknowledged), so the intact prefix is exactly
// the replayable history.
func ReadWAL(dir string) ([]WALBatch, error) {
	data, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading WAL: %w", err)
	}
	var batches []WALBatch
	for off := 0; off+12 <= len(data); {
		if binary.LittleEndian.Uint32(data[off:]) != walMagic {
			break
		}
		plen := int(binary.LittleEndian.Uint32(data[off+4:]))
		if plen < 12 || off+8+plen+4 > len(data) {
			break
		}
		payload := data[off+8 : off+8+plen]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[off+8+plen:]) {
			break
		}
		count := int(binary.LittleEndian.Uint32(payload[8:]))
		if 12+count*walMutBytes != plen {
			break
		}
		b := WALBatch{Epoch: binary.LittleEndian.Uint64(payload[0:])}
		for i := 0; i < count; i++ {
			p := 12 + i*walMutBytes
			b.Muts = append(b.Muts, graph.Mutation{
				Kind:  graph.MutationKind(payload[p]),
				U:     graph.VertexID(binary.LittleEndian.Uint64(payload[p+1:])),
				V:     graph.VertexID(binary.LittleEndian.Uint64(payload[p+9:])),
				Label: graph.Label(binary.LittleEndian.Uint64(payload[p+17:])),
			})
		}
		batches = append(batches, b)
		off += 8 + plen + 4
	}
	return batches, nil
}
