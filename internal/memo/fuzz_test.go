package memo

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// rawBytes is the pass-through value codec of FuzzRestore.
func rawBytes(b []byte) ([]byte, error) { return b, nil }

// snapshotBytes snapshots c with the pass-through codec.
func snapshotBytes(t testing.TB, c *Cache[[]byte]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Snapshot(&buf, rawBytes); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// residents maps c's resident keys to their values.
func residents(c *Cache[[]byte]) map[Key]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[Key]string, len(c.items))
	for k, e := range c.items {
		out[k] = string(e.val)
	}
	return out
}

// FuzzRestore hardens the snapshot decoder, which reads a file that a
// restarting dsed did not write in this process. The fuzzed bytes are a
// snapshot body (header and entries); the target appends the body's own
// sha256, so mutations pass the checksum and reach the framing and the
// decode step. Values pass through as raw bytes. No input may panic; a
// failed restore leaves a pre-filled cache as it was; and a restored
// cache, snapshotted and restored into a fresh cache with room for every
// entry, holds the same entries and snapshots to the same bytes. Run with
//
//	go test -fuzz=FuzzRestore ./internal/memo
func FuzzRestore(f *testing.F) {
	body := func(c *Cache[[]byte]) []byte {
		snap := snapshotBytes(f, c)
		return snap[:len(snap)-sha256.Size]
	}
	three := New[[]byte](4)
	for i := 0; i < 3; i++ {
		three.Put(KeyOf(fmt.Sprint(i)), []byte(strings.Repeat("v", i)))
	}
	full := body(three)
	corrupt := append([]byte(nil), full...)
	// The first entry's length word follows the header (magic, version,
	// count: 20 bytes), its key (32) and its exp word (8).
	binary.LittleEndian.PutUint64(corrupt[20+32+8:], 1<<40)
	f.Add(body(New[[]byte](4)))
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, body []byte) {
		sum := sha256.Sum256(body)
		snap := append(append([]byte(nil), body...), sum[:]...)

		c := New[[]byte](64)
		c.Put(KeyOf("resident"), []byte("before"))
		before, stats := snapshotBytes(t, c), c.Stats()
		if _, err := Restore(c, bytes.NewReader(snap), rawBytes); err != nil {
			if !bytes.Equal(snapshotBytes(t, c), before) || c.Stats() != stats {
				t.Fatalf("failed restore (%v) changed the cache", err)
			}
			return
		}

		again := snapshotBytes(t, c)
		fresh := New[[]byte](c.Len() + 1)
		n, err := Restore(fresh, bytes.NewReader(again), rawBytes)
		if err != nil {
			t.Fatalf("restoring a snapshot of a restored cache: %v", err)
		}
		if n != c.Len() || !reflect.DeepEqual(residents(fresh), residents(c)) {
			t.Fatalf("second restore holds %d entries, want the %d of the first", fresh.Len(), c.Len())
		}
		if !bytes.Equal(snapshotBytes(t, fresh), again) {
			t.Fatal("the second restore snapshots to other bytes")
		}
	})
}
