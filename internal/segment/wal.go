package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lscr/internal/failpoint"
)

// Write-ahead log. Every committed Apply batch is appended (and, in
// sync mode, fsynced) before its epoch is published, so a crash loses
// at most batches the caller was never told succeeded. Compaction
// appends a "seal" record carrying the epoch bump it publishes, so a
// recovered engine lands on exactly the pre-crash epoch sequence.
//
// Layout: magic "LSCRWAL1", then records
//
//	len u32 | crc32(body) u32 | body = kind u8 | seq u64 | payload
//
// Records are appended strictly in epoch order (the engine serializes
// publishers), so replay is a single forward scan. A torn tail — a
// record cut short or failing its CRC, the signature of a crash
// mid-append — is truncated away on open; anything after it is by
// construction unacknowledged.

const (
	walMagic     = "LSCRWAL1"
	walName      = "wal.log"
	recHeader    = 8 // len u32 + crc u32
	recBodyMin   = 9 // kind u8 + seq u64
	maxRecordLen = 1 << 30
)

// Record kinds.
const (
	// RecordBatch carries one committed Apply batch (EncodeOps payload)
	// published at Seq.
	RecordBatch byte = 1
	// RecordSeal carries a compaction swap published at Seq: the fold of
	// every batch up to the sealed segment's base seq, which is the
	// payload (u64, below Seq), plus the batches after it.
	RecordSeal byte = 2
)

// WALRecord is one decoded log record.
type WALRecord struct {
	Kind    byte
	Seq     uint64
	Payload []byte
}

// WALPath returns the log path inside a data directory.
func WALPath(dir string) string { return filepath.Join(dir, walName) }

// WAL is an append-only mutation log. Methods are safe for concurrent
// use; appends and rotation serialize on an internal mutex.
type WAL struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	size     int64
	records  int
	dirty    bool
	lastSync time.Time
}

// WALStats is a point-in-time durability snapshot for monitoring.
type WALStats struct {
	Records  int
	Bytes    int64
	LastSync time.Time // zero until the first fsync
}

// OpenWAL opens (creating if absent) the log at path, replays every
// intact record and truncates a torn tail. The returned records are in
// append order with strictly increasing Seq.
func OpenWAL(path string) (*WAL, []WALRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path}
	recs, good, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good == 0 {
		if st, serr := f.Stat(); serr == nil && st.Size() >= int64(len(walMagic)) {
			// A full-length file with an unreadable magic is not a torn
			// append; refuse to silently wipe committed batches.
			f.Close()
			return nil, nil, corruptf("wal magic unreadable")
		}
		// New file (or a crash mid-magic): (re)write the magic.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.WriteAt([]byte(walMagic), 0); err != nil {
			f.Close()
			return nil, nil, err
		}
		good = int64(len(walMagic))
	} else if st, err := f.Stat(); err == nil && st.Size() > good {
		// Torn tail: drop the unacknowledged suffix.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.size = good
	w.records = len(recs)
	return w, recs, nil
}

// scanWAL reads records until EOF or the first torn/corrupt one,
// returning the intact records and the byte offset they end at (0 when
// even the magic is unreadable).
func scanWAL(f *os.File) ([]WALRecord, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		return nil, 0, nil
	}
	var recs []WALRecord
	good := int64(len(walMagic))
	hdr := make([]byte, recHeader)
	var lastSeq uint64
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return recs, good, nil
		}
		bodyLen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if bodyLen < recBodyMin || bodyLen > maxRecordLen {
			return recs, good, nil
		}
		body := make([]byte, bodyLen)
		if _, err := io.ReadFull(f, body); err != nil {
			return recs, good, nil
		}
		if checksum(body) != wantCRC {
			return recs, good, nil
		}
		rec := WALRecord{
			Kind:    body[0],
			Seq:     binary.LittleEndian.Uint64(body[1:9]),
			Payload: body[9:],
		}
		if len(recs) > 0 && rec.Seq <= lastSeq {
			// Sequence regression cannot come from a torn append; the
			// file is damaged beyond tail truncation.
			return nil, 0, corruptf("wal sequence regression at %d", rec.Seq)
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
		good += int64(recHeader) + int64(bodyLen)
	}
}

// Append writes one record; with sync it is fsynced before returning —
// the durability point of an Apply batch.
func (w *WAL) Append(kind byte, seq uint64, payload []byte, sync bool) error {
	if len(payload) > maxRecordLen-recBodyMin {
		return fmt.Errorf("segment: wal record too large (%d bytes)", len(payload))
	}
	buf := make([]byte, recHeader+recBodyMin+len(payload))
	body := buf[recHeader:]
	body[0] = kind
	binary.LittleEndian.PutUint64(body[1:9], seq)
	copy(body[9:], payload)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], checksum(body))

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("segment: wal closed")
	}
	if fp := failpoint.Eval(FPWALAppend); fp != nil {
		if fp.Torn > 0 {
			// A crash mid-append: a prefix of the record reaches the file
			// but is never acknowledged. Size/record counters stay put —
			// the torn bytes are exactly what reopen truncates away.
			w.f.Write(buf[:min(fp.Torn, len(buf))])
		}
		return fp
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.size += int64(len(buf))
	w.records++
	w.dirty = true
	if sync {
		return w.syncLocked()
	}
	return nil
}

// Sync flushes lazily-appended records to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.f == nil || !w.dirty {
		return nil
	}
	if fp := failpoint.Eval(FPWALSync); fp != nil {
		return fp
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// Rotate rewrites the log keeping only records with Seq > keepAfter —
// the post-seal truncation: everything at or below the sealed segment's
// base seq is covered by the segment itself. The rewrite is atomic
// (temp + fsync + rename) and appends issued after Rotate returns go to
// the new file.
func (w *WAL) Rotate(keepAfter uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return errors.New("segment: wal closed")
	}
	if err := w.syncLocked(); err != nil {
		return err
	}
	recs, _, err := scanWAL(w.f)
	if err != nil {
		return err
	}
	tmpPath := w.path + tmpSuffix
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	size := int64(len(walMagic))
	kept := 0
	// Assign the outer err: a record-copy failure must survive this
	// block, not die in an if-scoped shadow.
	_, err = tmp.Write([]byte(walMagic))
	if err == nil {
		for _, r := range recs {
			if r.Seq <= keepAfter {
				continue
			}
			buf := make([]byte, recHeader+recBodyMin+len(r.Payload))
			body := buf[recHeader:]
			body[0] = r.Kind
			binary.LittleEndian.PutUint64(body[1:9], r.Seq)
			copy(body[9:], r.Payload)
			binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
			binary.LittleEndian.PutUint32(buf[4:8], checksum(body))
			if fp := failpoint.Eval(FPWALRotateWrite); fp != nil {
				if fp.Torn > 0 {
					tmp.Write(buf[:min(fp.Torn, len(buf))])
				}
				err = fp
				break
			}
			if _, err = tmp.Write(buf); err != nil {
				break
			}
			size += int64(len(buf))
			kept++
		}
	}
	if err == nil {
		if fp := failpoint.Eval(FPWALRotateSync); fp != nil {
			err = fp
		} else {
			err = tmp.Sync()
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if fp := failpoint.Eval(FPWALRotateRename); fp != nil {
		os.Remove(tmpPath)
		return fp
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		return err
	}
	f, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	w.f.Close()
	w.f = f
	w.size = size
	w.records = kept
	w.dirty = false
	return nil
}

// Stats reports the log's current durability state.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{Records: w.records, Bytes: w.size, LastSync: w.lastSync}
}

// Close syncs and closes the log.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}
