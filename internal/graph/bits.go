package graph

import "math/bits"

// Bits is a fixed-capacity bit set sized at creation time. It backs the
// transitive-closure rows and the visited sets of the traversal helpers.
type Bits []uint64

// NewBits returns a bit set able to hold n bits, all clear.
func NewBits(n int) Bits {
	return make(Bits, (n+63)/64)
}

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether bit i is set.
func (b Bits) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Or sets b to the union of b and other. The two sets must have the same
// capacity.
func (b Bits) Or(other Bits) {
	for i, w := range other {
		b[i] |= w
	}
}

// OrChanged is Or but additionally reports whether b changed.
func (b Bits) OrChanged(other Bits) bool {
	changed := false
	for i, w := range other {
		nw := b[i] | w
		if nw != b[i] {
			b[i] = nw
			changed = true
		}
	}
	return changed
}

// Reset clears every bit.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Equal reports whether b and other contain exactly the same bits.
func (b Bits) Equal(other Bits) bool {
	if len(b) != len(other) {
		return false
	}
	for i, w := range b {
		if w != other[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (b Bits) ForEach(fn func(i int)) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			fn(i)
			w &= w - 1
		}
	}
}
