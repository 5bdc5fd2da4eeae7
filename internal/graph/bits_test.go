package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsSetGetClear(t *testing.T) {
	b := NewBits(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh set", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestBitsOrChanged(t *testing.T) {
	a := NewBits(70)
	b := NewBits(70)
	b.Set(5)
	b.Set(69)
	if !a.OrChanged(b) {
		t.Fatal("OrChanged should report change")
	}
	if a.OrChanged(b) {
		t.Fatal("second OrChanged should report no change")
	}
	if !a.Get(5) || !a.Get(69) {
		t.Fatal("bits missing after Or")
	}
}

func TestBitsForEachOrder(t *testing.T) {
	b := NewBits(150)
	want := []int{2, 64, 65, 149}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

// Property: Or is equivalent to element-wise set union over a map model.
func TestBitsOrMatchesSetModel(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := NewBits(256), NewBits(256)
		ma := map[int]bool{}
		for _, x := range xs {
			a.Set(int(x))
			ma[int(x)] = true
		}
		for _, y := range ys {
			b.Set(int(y))
			ma[int(y)] = true
		}
		a.Or(b)
		for k := 0; k < 256; k++ {
			if a.Get(k) != ma[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsEqual(t *testing.T) {
	a, b := NewBits(64), NewBits(64)
	if !a.Equal(b) {
		t.Fatal("empty sets unequal")
	}
	a.Set(10)
	if a.Equal(b) {
		t.Fatal("different sets equal")
	}
	b.Set(10)
	if !a.Equal(b) {
		t.Fatal("same sets unequal")
	}
	if a.Equal(NewBits(128)) {
		t.Fatal("different capacity sets equal")
	}
}
