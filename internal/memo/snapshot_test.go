package memo

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func encInt(v int) ([]byte, error) { return json.Marshal(v) }
func decInt(b []byte) (int, error) { var v int; err := json.Unmarshal(b, &v); return v, err }
func encBad(int) ([]byte, error)   { return nil, fmt.Errorf("boom") }
func decBad(b []byte) (int, error) { return 0, fmt.Errorf("boom") }

func TestSnapshotRoundTrip(t *testing.T) {
	src := New[int](64)
	want := map[Key]int{}
	for i := 0; i < 40; i++ {
		k := KeyOf(fmt.Sprintf("entry-%d", i))
		src.Put(k, i*i)
		want[k] = i * i
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf, encInt); err != nil {
		t.Fatal(err)
	}

	dst := New[int](64)
	n, err := Restore(dst, bytes.NewReader(buf.Bytes()), decInt)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("restored %d entries, want %d", n, len(want))
	}
	for k, v := range want {
		got, ok := dst.Get(k)
		if !ok || got != v {
			t.Fatalf("restored cache lost %x: %d, %v", k[:4], got, ok)
		}
	}
}

// TestSnapshotDeterministic: two snapshots of the same content are
// byte-identical regardless of insertion order.
func TestSnapshotDeterministic(t *testing.T) {
	a := New[int](64)
	b := New[int](64)
	for i := 0; i < 20; i++ {
		a.Put(KeyOf(fmt.Sprint(i)), i)
	}
	for i := 19; i >= 0; i-- {
		b.Put(KeyOf(fmt.Sprint(i)), i)
	}
	var ba, bb bytes.Buffer
	if err := a.Snapshot(&ba, encInt); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(&bb, encInt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("snapshots of identical content differ")
	}
}

// TestRestoreCorruptSnapshot: flipping any byte fails the checksum and
// loads nothing — the cache degrades to cold, never to poisoned.
func TestRestoreCorruptSnapshot(t *testing.T) {
	src := New[int](16)
	for i := 0; i < 8; i++ {
		src.Put(KeyOf(fmt.Sprint(i)), i)
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle of the entry section.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xff
	dst := New[int](16)
	if _, err := Restore(dst, bytes.NewReader(corrupt), decInt); err == nil {
		t.Fatal("corrupt snapshot restored without error")
	}
	if dst.Len() != 0 {
		t.Fatalf("corrupt restore left %d entries resident", dst.Len())
	}
	// Truncation is also detected.
	if _, err := Restore(dst, bytes.NewReader(raw[:len(raw)-5]), decInt); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
	if dst.Len() != 0 {
		t.Fatalf("truncated restore left %d entries resident", dst.Len())
	}
}

func TestRestoreVersionAndMagicMismatch(t *testing.T) {
	src := New[int](16)
	src.Put(KeyOf("x"), 1)
	var buf bytes.Buffer
	if err := src.Snapshot(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	future := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(future[8:12], SnapshotVersion+1)
	dst := New[int](16)
	if _, err := Restore(dst, bytes.NewReader(future), decInt); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}

	if _, err := Restore(dst, strings.NewReader("not a snapshot at all"), decInt); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("garbage accepted: %v", err)
	}
	if dst.Len() != 0 {
		t.Fatal("mismatched restore mutated the cache")
	}
}

func TestSnapshotCodecErrorsPropagate(t *testing.T) {
	src := New[int](16)
	src.Put(KeyOf("x"), 1)
	if err := src.Snapshot(&bytes.Buffer{}, encBad); err == nil {
		t.Fatal("encoder error swallowed")
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	dst := New[int](16)
	if _, err := Restore(dst, bytes.NewReader(buf.Bytes()), decBad); err == nil {
		t.Fatal("decoder error swallowed")
	}

	// All or nothing: when only the last entry in key order fails to
	// decode, the entries before it must not stay loaded either.
	multi := New[int](16)
	last, lastKey := 0, Key{}
	for i := 0; i < 4; i++ {
		k := KeyOf(fmt.Sprint("entry-", i))
		multi.Put(k, i)
		if bytes.Compare(k[:], lastKey[:]) > 0 {
			last, lastKey = i, k
		}
	}
	if multi.Len() != 4 {
		t.Fatalf("source cache holds %d entries, want 4", multi.Len())
	}
	buf.Reset()
	if err := multi.Snapshot(&buf, encInt); err != nil {
		t.Fatal(err)
	}
	decodes := 0
	decLastBad := func(b []byte) (int, error) {
		decodes++
		v, err := decInt(b)
		if err == nil && v == last {
			return 0, fmt.Errorf("boom")
		}
		return v, err
	}
	dst = New[int](16)
	n, err := Restore(dst, bytes.NewReader(buf.Bytes()), decLastBad)
	if err == nil {
		t.Fatal("decoder error on the last entry swallowed")
	}
	if decodes != 4 {
		t.Fatalf("decoded %d entries, want all 4 (the failing one last)", decodes)
	}
	if n != 0 || dst.Len() != 0 {
		t.Fatalf("failed restore loaded %d entries (reported %d), want none", dst.Len(), n)
	}
}

// TestSnapshotWhileServing: snapshotting under concurrent Do traffic is
// race-free (run with -race) and captures a consistent subset.
func TestSnapshotWhileServing(t *testing.T) {
	c := New[int](128)
	stop := make(chan struct{})
	go func() {
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			k := KeyOf(fmt.Sprint(i % 200))
			c.Do(context.Background(), k, func() (int, error) { return i, nil })
		}
	}()
	for round := 0; round < 10; round++ {
		var buf bytes.Buffer
		if err := c.Snapshot(&buf, encInt); err != nil {
			t.Fatal(err)
		}
		dst := New[int](128)
		if _, err := Restore(dst, bytes.NewReader(buf.Bytes()), decInt); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
}
