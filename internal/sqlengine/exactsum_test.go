package sqlengine

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// bigSum is the exact sum's reference, independent of exactsum.go: the
// values added in math/big with a mantissa wide enough for any sum of
// doubles and integers, rounded to a float64 once (nearest, ties to
// even), NaN and ±Inf combined as IEEE addition combines them. The
// oracle's SUM and AVG over DOUBLE are this.
func bigSum(vals []Value) float64 {
	sum := new(big.Float).SetPrec(2400)
	var nan, pos, neg bool
	for _, v := range vals {
		switch x := v.F; {
		case v.Type != TypeDouble:
			sum.Add(sum, new(big.Float).SetInt64(v.I))
		case math.IsNaN(x):
			nan = true
		case math.IsInf(x, 1):
			pos = true
		case math.IsInf(x, -1):
			neg = true
		default:
			sum.Add(sum, new(big.Float).SetFloat64(x))
		}
	}
	switch {
	case nan || pos && neg:
		return math.NaN()
	case pos:
		return math.Inf(1)
	case neg:
		return math.Inf(-1)
	}
	f, _ := sum.Float64()
	return f
}

func doubles(xs []float64) []Value {
	vals := make([]Value, len(xs))
	for i, x := range xs {
		vals[i] = NewDouble(x)
	}
	return vals
}

// sameFloat is bit identity, every NaN being the same.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// pageSum is a page's exact sum the way the chunk feeder takes it: the
// values pushed into a DOUBLE vector and folded into one group, through
// the page's fixed scale when it has one.
func pageSum(xs []float64) exactSum {
	v := colVec{typ: TypeDouble, nulls: newBitset(chunkRows)}
	v.reset(len(xs))
	for i, x := range xs {
		v.push(i, NewDouble(x))
	}
	var a aggAcc
	a.grow(aggSum)
	a.foldFloats(&v, allRows[:len(xs)], make([]int32, len(xs)))
	return a.sumX[0]
}

// checkExactSum splits xs at random points into parts, sums each part on
// its own — value by value, or as a page — and merges the parts in a
// random order. The total must be bigSum's, bit for bit.
func checkExactSum(t *testing.T, xs []float64, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var parts []exactSum
	for rest := xs; len(rest) > 0; {
		n := 1 + r.Intn(min(len(rest), chunkRows))
		var s exactSum
		if r.Intn(2) == 0 {
			s = pageSum(rest[:n])
		} else {
			for _, x := range rest[:n] {
				s.addFloat(x)
			}
		}
		parts, rest = append(parts, s), rest[n:]
	}
	var total exactSum
	for _, i := range r.Perm(len(parts)) {
		total.merge(&parts[i])
	}
	if got, want := total.round(), bigSum(doubles(xs)); !sameFloat(got, want) {
		t.Fatalf("%d values in %d parts (seed %d): exact sum %v (%#x), math/big %v (%#x)\nvalues: %v",
			len(xs), len(parts), seed, got, math.Float64bits(got), want, math.Float64bits(want), xs)
	}
}

// fuzzFloats decodes a fuzz input into doubles, nine bytes a value: a
// selector, then eight bytes read as a float64's bits, as a small
// multiple of a half, as the negation of an earlier value, or as one of
// the edge values.
func fuzzFloats(data []byte) []float64 {
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 1e16, -1e16, 1, 0.1}
	var xs []float64
	for ; len(data) >= 9; data = data[9:] {
		b := binary.LittleEndian.Uint64(data[1:9])
		switch data[0] % 5 {
		case 0:
			xs = append(xs, math.Float64frombits(b))
		case 1:
			xs = append(xs, float64(int32(b))*0.5)
		case 2:
			if len(xs) > 0 {
				xs = append(xs, -xs[b%uint64(len(xs))])
			}
		case 3:
			xs = append(xs, edges[b%uint64(len(edges))])
		default: // a mantissa's worth of bits at a nearby exponent
			xs = append(xs, math.Ldexp(float64(b>>11), int(int8(b))%40-52))
		}
	}
	return xs
}

func encodeFloats(sel byte, xs ...float64) []byte {
	var data []byte
	for _, x := range xs {
		data = append(data, sel)
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
	}
	return data
}

// FuzzExactSum holds the exact sum to math/big: random lists of doubles,
// NaN, ±Inf, ±0, subnormals, ±MaxFloat64 and cancellations among them,
// split into parts that merge in random order, total bit for bit what
// adding them all exactly and rounding once gives. The seeds reach the
// fixed route (halves, one page's scale) and the superaccumulator
// (values a fixed sum cannot hold, overflowing partial sums).
func FuzzExactSum(f *testing.F) {
	f.Add(encodeFloats(0, 1e16, 1, -1e16), int64(1))
	f.Add(encodeFloats(0, 0.5, 1.5, -2, 7.25, 1024), int64(2))
	f.Add(encodeFloats(0, 0.1, 0.2, 0.3, 1e-300, 1e300, -1e300), int64(3))
	f.Add(encodeFloats(0, math.MaxFloat64, math.MaxFloat64, -math.MaxFloat64, 0x1p970), int64(4))
	f.Add(encodeFloats(0, math.SmallestNonzeroFloat64, 0x1p-1060, 0x1.8p-1074, -0x1p-1070), int64(5))
	f.Add(encodeFloats(0, math.Copysign(0, -1), math.Copysign(0, -1)), int64(6))
	f.Add(encodeFloats(0, math.Inf(1), 1, math.NaN()), int64(7))
	f.Add(encodeFloats(0, math.Inf(1), math.Inf(-1)), int64(8))
	f.Add(encodeFloats(0, 1, 0x1p62, 0x1p62, 0x1p62, -0x1p-40), int64(9))
	f.Add(encodeFloats(0, math.MaxFloat64, 0x1p970, -0x1p918), int64(10)) // rounds down to MaxFloat64, ties to even
	r := rand.New(rand.NewSource(11))
	var mixed []byte
	for i := 0; i < 400; i++ {
		mixed = append(mixed, byte(r.Intn(5)))
		mixed = binary.LittleEndian.AppendUint64(mixed, r.Uint64())
	}
	f.Add(mixed, int64(12))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if xs := fuzzFloats(data); len(xs) > 0 {
			checkExactSum(t, xs, seed)
		}
	})
}

// TestExactSumRoutes pins that both routes are taken: halves stay in the
// fixed sum however they split, and values a fixed sum cannot hold —
// a fine one beside a coarse one, an overflow — reach the
// superaccumulator.
func TestExactSumRoutes(t *testing.T) {
	halves := []float64{0.5, 1.5, -2, 7.25, 1024, 3}
	var s exactSum
	for _, x := range halves {
		s.addFloat(x)
	}
	if p := pageSum(halves); s.acc != nil || p.acc != nil {
		t.Fatalf("halves spilled: value by value %v, as a page %v", s.acc != nil, p.acc != nil)
	}
	if k, ok := pageVec(halves).sumScale(); !ok || k != 2 {
		t.Fatalf("sumScale of %v = %d, %v; want 2, true", halves, k, ok)
	}
	for _, xs := range [][]float64{{1, 0x1p-60}, {1, 0x1p62, 0x1p62}, {1e300, 1e-300}} {
		var s exactSum
		for _, x := range xs {
			s.addFloat(x)
		}
		if s.acc == nil {
			t.Fatalf("%v stayed in the fixed sum", xs)
		}
		checkExactSum(t, xs, 1)
	}
	if _, ok := pageVec([]float64{1, 0x1p-60}).sumScale(); ok {
		t.Fatal("a page of 1 and 2^-60 has a fixed scale")
	}
}

func pageVec(xs []float64) *colVec {
	v := &colVec{typ: TypeDouble, nulls: newBitset(chunkRows)}
	v.reset(len(xs))
	for i, x := range xs {
		v.push(i, NewDouble(x))
	}
	return v
}

// TestSumOrderIndependent pins SUM and AVG over DOUBLE to the exact sum
// whatever order the rows arrive in: 1e16, 1 and -1e16, inserted in each
// of the six orders, sum to 1 and average to 1/3 through the chunk
// feeder, the row feeder (a grouped join, a GROUP BY expression) and the
// oracle. Adding them in row order gives 0 when 1 meets 1e16 first.
func TestSumOrderIndependent(t *testing.T) {
	vals := []float64{1e16, 1, -1e16}
	for _, perm := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		t.Run(fmt.Sprint(perm), func(t *testing.T) {
			e := New("order")
			e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, b DOUBLE)`)
			e.MustExec(`CREATE TABLE one (id INTEGER)`)
			e.MustExec(`INSERT INTO one VALUES (0)`)
			for i, p := range perm {
				e.MustExec(`INSERT INTO t VALUES (?, 0, ?)`, NewInt(int64(i)), NewDouble(vals[p]))
			}
			for _, sql := range []string{
				`SELECT SUM(b), AVG(b) FROM t`,                                                  // chunk feeder, the implicit group
				`SELECT g, SUM(b), AVG(b) FROM t GROUP BY g`,                                    // chunk feeder
				`SELECT g % 2, SUM(b), AVG(b) FROM t GROUP BY g % 2`,                            // row feeder
				`SELECT o.id, SUM(t.b), AVG(t.b) FROM t JOIN one o ON t.g = o.id GROUP BY o.id`, // row feeder, joined
			} {
				set := execAllPaths(t, e, sql)
				row := set.Rows[0]
				if sum, avg := row[len(row)-2], row[len(row)-1]; len(set.Rows) != 1 || sum != NewDouble(1) || avg != NewDouble(1.0/3) {
					t.Fatalf("%s: got %v, want SUM 1 and AVG 1/3 in one row", sql, set.Rows)
				}
			}
		})
	}
}

// TestNegativeZeroGroupsWithZero pins −0 and 0 to one group, as = finds
// them equal: GROUP BY, DISTINCT and UNION each answer one row for them,
// keeping the value met first, with and without an index on the column,
// on the kernels and the row operators and under the oracle.
func TestNegativeZeroGroupsWithZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, first := range []float64{negZero, 0} {
		second := negZero
		if math.Signbit(first) {
			second = 0
		}
		for _, indexed := range []bool{false, true} {
			t.Run(fmt.Sprintf("first=%v/indexed=%v", NewDouble(first), indexed), func(t *testing.T) {
				e := New("negzero")
				e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, b DOUBLE)`)
				if indexed {
					e.MustExec(`CREATE INDEX t_b ON t (b)`)
				}
				e.MustExec(`INSERT INTO t VALUES (1, ?)`, NewDouble(first))
				e.MustExec(`INSERT INTO t VALUES (2, ?)`, NewDouble(second))
				e.MustExec(`INSERT INTO t VALUES (3, 1.5)`)
				kept := "DOUBLE(" + NewDouble(first).String() + "),"
				for _, tc := range []struct{ sql, want string }{
					{`SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY 2 DESC`, kept + "BIGINT(2),\nDOUBLE(1.5),BIGINT(1),\n"},
					{`SELECT b, COUNT(*) FROM t WHERE b <= 0 GROUP BY b`, kept + "BIGINT(2),\n"},
					{`SELECT DISTINCT b FROM t WHERE b <= 0`, kept + "\n"},
					{`SELECT b FROM t WHERE id = 1 UNION SELECT b FROM t WHERE id = 2`, kept + "\n"},
					{`SELECT COUNT(DISTINCT b) FROM t`, "BIGINT(2),\n"},
				} {
					if got := strings.SplitN(dumpSet(execAllPaths(t, e, tc.sql)), "\n", 2)[1]; got != tc.want {
						t.Fatalf("%s: got rows\n%swant\n%s", tc.sql, got, tc.want)
					}
				}
			})
		}
	}
}
