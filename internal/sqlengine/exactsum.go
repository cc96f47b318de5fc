package sqlengine

import (
	"math"
	"math/bits"
	"slices"
)

// The exact sum. Every SUM and AVG adds its values exactly. A total a
// DOUBLE was added to is rounded to a float64 once, to nearest-even, when
// it is read; an integer SUM's total is read as the BIGINT it is, or
// fails when it lies outside BIGINT. The answer then depends on the
// values alone, not on the order a scan, an index or a page's partial
// visits them in, so a total merges from parts (Neal, "Fast exact
// summation using small and large superaccumulators", arXiv:1505.05571).
//
// Two routes hold the total. The fast one is fixed point: values
// m·2^-scale with integer m, summed in an int64. A DOUBLE page records
// the scale at which each of its finite values is such an m with
// |m| < 2^53 (colVec.sumScale), so its at most 1 024 values add without
// an overflow check. What does not fit the fixed sum — a value finer
// than its scale, an overflow, a part at another scale — spills into a
// superaccumulator: 32-bit digits held in int64s over the span of bit
// positions met, their carries held back. NaN and ±Inf are kept beside
// the total and combine as IEEE addition combines them.

// expBias places 2^e at bit position e+expBias of a superaccumulator:
// every double, and every fixed scale, sits at position 0 or above.
const expBias = 1074

// carryEvery is the number of additions a superaccumulator takes between
// carry passes: each adds less than 2^32 to a digit, so no digit passes
// 2^63.
const carryEvery = 1 << 30

const (
	sumNaN uint8 = 1 << iota
	sumPosInf
	sumNegInf
)

// exactSum is one exact total: fix·2^-scale, plus acc, plus the NaN and
// infinities in special; dbl records that a DOUBLE was added. The zero
// value is an empty sum.
type exactSum struct {
	fix     int64
	scale   int32
	special uint8
	dbl     bool
	acc     *superAcc // nil until something spills
}

// floatParts splits a finite x into |x| = m·2^exp with integer m < 2^53
// (0 for ±0); finite=false for NaN and ±Inf.
func floatParts(x float64) (m uint64, exp int, finite bool) {
	b := math.Float64bits(x)
	m, e := b&(1<<52-1), int(b>>52&0x7ff)
	switch e {
	case 0x7ff:
		return 0, 0, false
	case 0: // subnormal
		e = 1
	default:
		m |= 1 << 52
	}
	return m, e - 1075, true
}

// addFloat adds one DOUBLE.
func (s *exactSum) addFloat(x float64) {
	s.dbl = true
	m, exp, finite := floatParts(x)
	switch {
	case !finite:
		s.special |= specialOf(x)
		return
	case m == 0:
		return
	}
	tz := bits.TrailingZeros64(m)
	v := int64(m >> tz)
	if x < 0 {
		v = -v
	}
	s.addAt(v, exp+tz)
}

func specialOf(x float64) uint8 {
	switch {
	case math.IsNaN(x):
		return sumNaN
	case x > 0:
		return sumPosInf
	}
	return sumNegInf
}

// addInt adds one integer: straight into a fixed sum of whole units
// when the two do not overflow, which spares an integer SUM's fold
// addAt's detour.
func (s *exactSum) addInt(v int64) {
	if r := s.fix + v; s.scale == 0 && (s.fix^r)&(v^r) >= 0 {
		s.fix = r
		return
	}
	s.addAt(v, 0)
}

// addAt adds v·2^exp: into the fixed sum when it is empty (taking exp's
// scale) or when v is a whole multiple of its unit, else into acc.
func (s *exactSum) addAt(v int64, exp int) {
	switch sh := exp + int(s.scale); {
	case s.fix == 0:
		s.fix, s.scale = v, int32(-exp)
	case sh >= 0 && sh < 63 && v<<sh>>sh == v:
		s.addFixed(v << sh)
	default:
		s.accum().add(v, exp)
	}
}

// addFixed adds m units of the fixed sum, spilling the sum so far into
// acc when the two overflow an int64.
func (s *exactSum) addFixed(m int64) {
	if r := s.fix + m; (s.fix^r)&(m^r) >= 0 {
		s.fix = r
		return
	}
	s.accum().add(s.fix, -int(s.scale))
	s.fix = m
}

func (s *exactSum) accum() *superAcc {
	if s.acc == nil {
		s.acc = new(superAcc)
	}
	return s.acc
}

// merge adds the total o holds; o is only read.
func (s *exactSum) merge(o *exactSum) {
	s.dbl = s.dbl || o.dbl
	if o.acc == nil && o.special == 0 && o.scale == s.scale {
		s.addFixed(o.fix)
		return
	}
	s.special |= o.special
	if o.acc != nil {
		s.accum().merge(o.acc)
	}
	if o.fix != 0 {
		s.addAt(o.fix, -int(o.scale))
	}
}

// reset empties the sum, keeping acc's digits for reuse.
func (s *exactSum) reset() {
	s.fix, s.scale, s.special, s.dbl = 0, 0, 0, false
	if s.acc != nil {
		s.acc.reset()
	}
}

// clone is a copy sharing nothing with s.
func (s *exactSum) clone() exactSum {
	c := *s
	if s.acc != nil {
		c.acc = &superAcc{lo: s.acc.lo, d: slices.Clone(s.acc.d), adds: s.acc.adds}
	}
	return c
}

// round is the total rounded once to the nearest float64, ties to even.
// An exact zero is +0, as adding up from +0 gives.
func (s *exactSum) round() float64 {
	switch {
	case s.special&sumNaN != 0 || s.special&(sumPosInf|sumNegInf) == sumPosInf|sumNegInf:
		return math.NaN()
	case s.special == sumPosInf:
		return math.Inf(1)
	case s.special == sumNegInf:
		return math.Inf(-1)
	case s.acc == nil && -1<<53 < s.fix && s.fix < 1<<53:
		return math.Ldexp(float64(s.fix), -int(s.scale)) // exact, or overflows to ±Inf
	}
	return s.total().round()
}

// int is an integer total, exactly; ok=false when it lies outside
// BIGINT.
func (s *exactSum) int() (v int64, ok bool) {
	if s.acc == nil && s.scale == 0 {
		return s.fix, true
	}
	return s.total().int()
}

// total is the whole sum in a superaccumulator of its own.
func (s *exactSum) total() *superAcc {
	t := new(superAcc)
	if s.acc != nil {
		t.merge(s.acc)
	}
	t.add(s.fix, -int(s.scale))
	return t
}

// superAcc is an exact integer multiple of 2^-expBias in base-2^32
// digits: digit i, of weight 2^(32i-expBias), is d[i-lo]. Digits are
// signed and carry lazily; a carry pass leaves every digit but the top
// in [0, 2^32) and the top one, whose sign is the total's, within
// ±2^32.
type superAcc struct {
	lo   int
	d    []int64
	adds int // additions since the last carry pass
}

// add adds v·2^exp, exp ≥ -expBias.
func (a *superAcc) add(v int64, exp int) {
	if v == 0 {
		return
	}
	mag := uint64(v)
	if v < 0 {
		mag = -mag
	}
	p := exp + expBias
	i, sh := p>>5, uint(p&31)
	lo, hi := mag<<sh, uint64(0)
	if sh > 0 {
		hi = mag >> (64 - sh)
	}
	x0, x1, x2 := int64(lo&(1<<32-1)), int64(lo>>32), int64(hi)
	if v < 0 {
		x0, x1, x2 = -x0, -x1, -x2
	}
	a.cover(i, i+3)
	d := a.d[i-a.lo:]
	d[0] += x0
	d[1] += x1
	d[2] += x2
	if a.adds++; a.adds >= carryEvery {
		a.carry()
	}
}

// merge adds b's total; b is only read.
func (a *superAcc) merge(b *superAcc) {
	if len(b.d) == 0 {
		return
	}
	if a.adds+b.adds >= carryEvery {
		a.carry()
	}
	a.cover(b.lo, b.lo+len(b.d))
	d := a.d[b.lo-a.lo:]
	for j, x := range b.d {
		d[j] += x
	}
	if a.adds += b.adds + 1; a.adds >= carryEvery {
		a.carry()
	}
}

// cover widens the digits held to include [lo, hi).
func (a *superAcc) cover(lo, hi int) {
	if len(a.d) == 0 {
		a.lo, a.d = lo, slices.Grow(a.d[:0], hi-lo)[:hi-lo]
		clear(a.d)
		return
	}
	if lo < a.lo {
		a.d = append(make([]int64, a.lo-lo, a.lo-lo+len(a.d)+2), a.d...)
		a.lo = lo
	}
	if top := a.lo + len(a.d); hi > top {
		a.d = append(a.d, make([]int64, hi-top)...)
	}
}

func (a *superAcc) reset() { a.d, a.adds = a.d[:0], 0 }

// carry propagates every digit's carry upwards, growing a top digit when
// one carries out.
func (a *superAcc) carry() {
	a.adds = 0
	for j := 0; j < len(a.d); j++ {
		c := a.d[j] >> 32
		if j == len(a.d)-1 {
			if c == 0 || c == -1 {
				break
			}
			a.d = append(a.d, 0)
		}
		a.d[j] -= c << 32
		a.d[j+1] += c
	}
}

// magnitude carries a and leaves it holding the total's magnitude: neg
// is the total's sign, high the position of its leading bit, -1 for
// zero.
func (a *superAcc) magnitude() (neg bool, high int) {
	if len(a.d) == 0 {
		return false, -1
	}
	a.carry()
	if neg = a.d[len(a.d)-1] < 0; neg {
		for j := range a.d {
			a.d[j] = -a.d[j]
		}
		a.carry()
	}
	top := len(a.d) - 1
	for top >= 0 && a.d[top] == 0 {
		top--
	}
	if top < 0 {
		return neg, -1
	}
	return neg, 32*(a.lo+top) + bits.Len64(uint64(a.d[top])) - 1
}

// int reads an integer total (one with no bit below 2^0) exactly;
// ok=false when it lies outside BIGINT.
func (a *superAcc) int() (int64, bool) {
	neg, high := a.magnitude()
	if w := high - expBias; w > 63 || w == 63 && (!neg || a.anyBelow(high)) {
		return 0, false
	}
	var m uint64
	for p := high; p >= expBias; p-- {
		m = m<<1 | a.bit(p)
	}
	if neg {
		return -int64(m), true // m = 2^63 wraps to MinInt64, as it should
	}
	return int64(m), true
}

// round rounds the total to the nearest float64, ties to even; a is
// left holding its magnitude.
func (a *superAcc) round() float64 {
	neg, high := a.magnitude()
	if high < 0 {
		return 0
	}
	var m uint64
	var f float64
	if high <= 52 { // below 2^53 units of 2^-1074: a subnormal or a small normal, exact
		for p := high; p >= 0; p-- {
			m = m<<1 | a.bit(p)
		}
		f = math.Ldexp(float64(m), -expBias)
	} else {
		low := high - 52
		for p := high; p >= low; p-- {
			m = m<<1 | a.bit(p)
		}
		if a.bit(low-1) == 1 && (m&1 == 1 || a.anyBelow(low-1)) {
			if m++; m == 1<<53 {
				m, low = m>>1, low+1
			}
		}
		f = math.Ldexp(float64(m), low-expBias) // exact, or overflows to +Inf
	}
	if neg {
		f = -f
	}
	return f
}

// bit is the bit at position p of a carried, non-negative total.
func (a *superAcc) bit(p int) uint64 {
	j := p>>5 - a.lo
	if p < 0 || j < 0 || j >= len(a.d) {
		return 0
	}
	return uint64(a.d[j]) >> (p & 31) & 1
}

// anyBelow reports a set bit below position p of a carried, non-negative
// total.
func (a *superAcc) anyBelow(p int) bool {
	if p <= 0 {
		return false
	}
	j := p>>5 - a.lo
	for i := 0; i < min(j, len(a.d)); i++ {
		if a.d[i] != 0 {
			return true
		}
	}
	return j >= 0 && j < len(a.d) && uint64(a.d[j])&(1<<(p&31)-1) != 0
}
