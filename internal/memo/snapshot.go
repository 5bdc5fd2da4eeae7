package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// Snapshot format (all integers little-endian):
//
//	magic    [8]byte  "DSEMEMO\x01"
//	version  uint32   SnapshotVersion
//	count    uint64   entry count
//	entries  count ×:
//	    key      [32]byte
//	    exp      int64    always 0; read and ignored on restore
//	    len      uint64   value length in bytes
//	    value    [len]byte
//	checksum [32]byte  sha256 over everything above
//
// The checksum makes truncation and corruption detectable; the version
// makes format evolution explicit. Restore refuses both with an error
// and loads nothing — a corrupt snapshot degrades to a cold cache, never
// to a poisoned one. The exp word is a freshness deadline that entries
// no longer carry; it stays so that the format, and SnapshotVersion,
// stay too.

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

var snapshotMagic = [8]byte{'D', 'S', 'E', 'M', 'E', 'M', 'O', 1}

// maxSnapshotValueBytes bounds one encoded value (and, via count×length,
// the allocations a hostile snapshot can demand before the checksum is
// ever verified).
const maxSnapshotValueBytes = 64 << 20

// Snapshot writes every resident entry to w: a versioned header, the
// entries in deterministic (key-sorted) order, and a trailing sha256
// checksum. encode serializes one value; it runs outside the shard
// locks, so it must not race with mutators of the value (values handed
// to a cache of deep-copied entries, like the runner's result cache, are
// safe).
func (c *Cache[V]) Snapshot(w io.Writer, encode func(V) ([]byte, error)) error {
	type rec struct {
		key Key
		val V
	}
	var recs []rec
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			recs = append(recs, rec{key: k, val: e.val})
		}
		s.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool {
		return bytes.Compare(recs[i].key[:], recs[j].key[:]) < 0
	})

	h := sha256.New()
	hw := io.MultiWriter(w, h)
	if _, err := hw.Write(snapshotMagic[:]); err != nil {
		return fmt.Errorf("memo: writing snapshot header: %w", err)
	}
	if err := writeUint32(hw, SnapshotVersion); err != nil {
		return err
	}
	if err := writeUint64(hw, uint64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		b, err := encode(r.val)
		if err != nil {
			return fmt.Errorf("memo: encoding snapshot entry: %w", err)
		}
		if _, err := hw.Write(r.key[:]); err != nil {
			return fmt.Errorf("memo: writing snapshot entry: %w", err)
		}
		if err := writeUint64(hw, 0); err != nil { // exp
			return err
		}
		if err := writeUint64(hw, uint64(len(b))); err != nil {
			return err
		}
		if _, err := hw.Write(b); err != nil {
			return fmt.Errorf("memo: writing snapshot entry: %w", err)
		}
	}
	if _, err := w.Write(h.Sum(nil)); err != nil {
		return fmt.Errorf("memo: writing snapshot checksum: %w", err)
	}
	return nil
}

// Restore loads a snapshot written by Snapshot into c, decoding each
// value with decode. The whole file is read and its checksum verified
// before anything is inserted, so a truncated, corrupt, or
// version-mismatched snapshot returns an error with the cache untouched.
// Every entry is inserted, its exp word ignored. Restore returns the
// number of entries inserted.
func Restore[V any](c *Cache[V], r io.Reader, decode func([]byte) (V, error)) (int, error) {
	h := sha256.New()
	hr := io.TeeReader(r, h)

	var magic [8]byte
	if _, err := io.ReadFull(hr, magic[:]); err != nil {
		return 0, fmt.Errorf("memo: reading snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return 0, fmt.Errorf("memo: not a cache snapshot (bad magic %q)", magic[:])
	}
	version, err := readUint32(hr)
	if err != nil {
		return 0, fmt.Errorf("memo: reading snapshot version: %w", err)
	}
	if version != SnapshotVersion {
		return 0, fmt.Errorf("memo: snapshot version %d, this build reads %d", version, SnapshotVersion)
	}
	count, err := readUint64(hr)
	if err != nil {
		return 0, fmt.Errorf("memo: reading snapshot entry count: %w", err)
	}

	type rec struct {
		key Key
		raw []byte
	}
	recs := make([]rec, 0, min(count, 1<<16)) // cap the pre-allocation; count is unverified until the checksum
	for i := uint64(0); i < count; i++ {
		var rc rec
		if _, err := io.ReadFull(hr, rc.key[:]); err != nil {
			return 0, fmt.Errorf("memo: snapshot truncated at entry %d: %w", i, err)
		}
		if _, err := readUint64(hr); err != nil { // exp
			return 0, fmt.Errorf("memo: snapshot truncated at entry %d: %w", i, err)
		}
		n, err := readUint64(hr)
		if err != nil {
			return 0, fmt.Errorf("memo: snapshot truncated at entry %d: %w", i, err)
		}
		if n > maxSnapshotValueBytes {
			return 0, fmt.Errorf("memo: snapshot entry %d claims %d bytes (corrupt length)", i, n)
		}
		rc.raw = make([]byte, n)
		if _, err := io.ReadFull(hr, rc.raw); err != nil {
			return 0, fmt.Errorf("memo: snapshot truncated at entry %d: %w", i, err)
		}
		recs = append(recs, rc)
	}
	// The checksum trailer is read from r directly — it must not hash
	// itself.
	sum := h.Sum(nil)
	var stored [sha256.Size]byte
	if _, err := io.ReadFull(r, stored[:]); err != nil {
		return 0, fmt.Errorf("memo: reading snapshot checksum: %w", err)
	}
	if !bytes.Equal(sum, stored[:]) {
		return 0, fmt.Errorf("memo: snapshot checksum mismatch (file corrupt)")
	}

	for i, rc := range recs {
		v, err := decode(rc.raw)
		if err != nil {
			return i, fmt.Errorf("memo: decoding snapshot entry: %w", err)
		}
		c.Put(rc.key, v)
	}
	return len(recs), nil
}

func writeUint32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("memo: writing snapshot: %w", err)
	}
	return nil
}

func writeUint64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if _, err := w.Write(b[:]); err != nil {
		return fmt.Errorf("memo: writing snapshot: %w", err)
	}
	return nil
}

func readUint32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readUint64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
