package datagen

import (
	"math"
	"sort"
)

// radixCutoff is the length below which SortFloat64s hands off to
// sort.Float64s: under it, clearing and scanning the 8×256 digit
// histograms costs more than the comparisons a radix sort saves (on an
// Intel Xeon with Go 1.24 the two break even between 512 and 1024 values).
const radixCutoff = 1024

// SortFloat64s sorts vals ascending in place. It is an LSD radix sort over
// order-preserving uint64 keys of the float64 bits, one byte per pass, and
// skips every pass whose byte is the same in every key (values with short
// mantissas, such as integers, leave their low bytes zero). The result is
// bit-identical to sort.Float64s for finite and infinite input, except for
// the relative order of -0 and +0, which both leave unspecified. vals must
// not contain NaN.
func SortFloat64s(vals []float64) {
	n := len(vals)
	if n < radixCutoff {
		sort.Float64s(vals)
		return
	}
	// Samples of sequential columns arrive in order; one scan is far
	// cheaper than eight radix passes over them.
	if sort.Float64sAreSorted(vals) {
		return
	}
	buf := make([]uint64, 2*n)
	keys, tmp := buf[:n], buf[n:]
	// One read of the input fills the histograms of all eight digits.
	var counts [8][256]int
	for i, v := range vals {
		k := floatKey(v)
		keys[i] = k
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(keys[0]>>shift)] == n {
			continue
		}
		sum := 0
		for b, cnt := range c {
			c[b] = sum
			sum += cnt
		}
		for _, k := range keys {
			b := byte(k >> shift)
			tmp[c[b]] = k
			c[b]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		vals[i] = keyFloat(k)
	}
}

// floatKey maps v to a uint64 whose unsigned order is v's numeric order:
// a positive float gets its sign bit set, a negative one has every bit
// flipped so larger magnitudes sort lower.
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}
