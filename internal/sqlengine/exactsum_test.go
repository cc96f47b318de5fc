package sqlengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
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
// values, all of one type, pushed into a vector and folded into one
// group — a DOUBLE page through its fixed scale when it has one.
func pageSum(vals []Value) exactSum {
	v := colVec{typ: vals[0].Type, nulls: newBitset(chunkRows)}
	v.reset(len(vals))
	for i, x := range vals {
		v.push(i, x)
	}
	var a aggAcc
	a.grow(aggSum)
	a.fold(aggSum, &v, allRows[:len(vals)], make([]int32, len(vals)))
	return a.sumX[0]
}

// checkExactSum splits vals at random points into parts, sums each part
// on its own — value by value, or as a page when it is of one type — and
// merges the parts in a random order. A total a DOUBLE was added to must
// round to bigSum's, bit for bit; an integer one must read as math/big's
// sum, or fail when that lies outside BIGINT.
func checkExactSum(t *testing.T, vals []Value, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var parts []exactSum
	for rest := vals; len(rest) > 0; {
		n := 1 + r.Intn(min(len(rest), chunkRows))
		part := rest[:n]
		oneType := !slices.ContainsFunc(part, func(v Value) bool { return v.Type != part[0].Type })
		var s exactSum
		if oneType && r.Intn(2) == 0 {
			s = pageSum(part)
		} else {
			for _, v := range part {
				if v.Type == TypeDouble {
					s.addFloat(v.F)
				} else {
					s.addInt(v.I)
				}
			}
		}
		parts, rest = append(parts, s), rest[n:]
	}
	var total exactSum
	for _, i := range r.Perm(len(parts)) {
		total.merge(&parts[i])
	}
	dbl := slices.ContainsFunc(vals, func(v Value) bool { return v.Type == TypeDouble })
	if total.dbl != dbl {
		t.Fatalf("%d values in %d parts (seed %d): a DOUBLE was added %v, recorded %v", len(vals), len(parts), seed, dbl, total.dbl)
	}
	if !dbl {
		want := new(big.Int)
		for _, v := range vals {
			want.Add(want, big.NewInt(v.I))
		}
		if got, ok := total.int(); ok != want.IsInt64() || ok && got != want.Int64() {
			t.Fatalf("%d integers in %d parts (seed %d): exact sum %d (in range %v), math/big %v\nvalues: %v",
				len(vals), len(parts), seed, got, ok, want, vals)
		}
		return
	}
	if got, want := total.round(), bigSum(vals); !sameFloat(got, want) {
		t.Fatalf("%d values in %d parts (seed %d): exact sum %v (%#x), math/big %v (%#x)\nvalues: %v",
			len(vals), len(parts), seed, got, math.Float64bits(got), want, math.Float64bits(want), vals)
	}
}

// fuzzValues decodes a fuzz input into values, nine bytes a value: a
// selector, then eight bytes read as a float64's bits, as a small
// multiple of a half, as the negation of an earlier value, as one of the
// edge doubles, as a mantissa at a nearby exponent, as one of the edge
// integers, or as an int64's bits.
func fuzzValues(data []byte) []Value {
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 1e16, -1e16, 1, 0.1}
	intEdges := []int64{1 << 62, -1 << 62, math.MaxInt64, math.MinInt64, 0, 1, -1}
	var vals []Value
	for ; len(data) >= 9; data = data[9:] {
		b := binary.LittleEndian.Uint64(data[1:9])
		switch data[0] % 7 {
		case 0:
			vals = append(vals, NewDouble(math.Float64frombits(b)))
		case 1:
			vals = append(vals, NewDouble(float64(int32(b))*0.5))
		case 2:
			if len(vals) > 0 {
				switch v := vals[b%uint64(len(vals))]; v.Type {
				case TypeDouble:
					vals = append(vals, NewDouble(-v.F))
				default:
					vals = append(vals, NewBigint(-v.I))
				}
			}
		case 3:
			vals = append(vals, NewDouble(edges[b%uint64(len(edges))]))
		case 4: // a mantissa's worth of bits at a nearby exponent
			vals = append(vals, NewDouble(math.Ldexp(float64(b>>11), int(int8(b))%40-52)))
		case 5:
			vals = append(vals, NewBigint(intEdges[b%uint64(len(intEdges))]))
		default:
			vals = append(vals, NewBigint(int64(b)))
		}
	}
	return vals
}

// encodeInts encodes integers for fuzzValues, as an int64's bits.
func encodeInts(xs ...int64) []byte {
	var data []byte
	for _, x := range xs {
		data = append(data, 6)
		data = binary.LittleEndian.AppendUint64(data, uint64(x))
	}
	return data
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
// adding them all exactly and rounding once gives; integers among them,
// ±2^62, MaxInt64 and MinInt64 included, add exactly too, and a list of
// integers alone reads as their exact total or is out of BIGINT's range
// exactly when math/big's is. The seeds reach the fixed route (halves,
// one page's scale) and the superaccumulator (values a fixed sum cannot
// hold, overflowing partial sums).
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
	f.Add(encodeInts(1<<62, 1<<62), int64(13))                                            // out of range
	f.Add(encodeInts(1<<62, 1<<62, -1<<62, -1<<62, -1), int64(14))                        // back in range
	f.Add(encodeInts(math.MaxInt64, 1, math.MinInt64, math.MinInt64, -1), int64(15))      // out below
	f.Add(encodeInts(-1<<62, -1<<62), int64(16))                                          // MinInt64 exactly
	f.Add(append(encodeFloats(0, 1e16, 0.5), encodeInts(math.MaxInt64, 3)...), int64(17)) // integers beside doubles
	var ints []byte
	for i := 0; i < 300; i++ {
		ints = append(ints, byte(5+r.Intn(2)))
		ints = binary.LittleEndian.AppendUint64(ints, r.Uint64())
	}
	f.Add(ints, int64(18))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if vals := fuzzValues(data); len(vals) > 0 {
			checkExactSum(t, vals, seed)
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
	if p := pageSum(doubles(halves)); s.acc != nil || p.acc != nil {
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
		checkExactSum(t, doubles(xs), 1)
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

// TestIntegerSumRange pins an integer SUM to its exact total: one outside
// BIGINT fails with HY000 on the chunk feeder, the row feeder (a grouped
// join) and the oracle alike — two rows of 2^62 used to wrap to -2^63 —,
// and a total back inside the range answers it, whatever the partial
// sums passed through on the way.
func TestIntegerSumRange(t *testing.T) {
	const p62 = 1 << 62
	for _, tc := range []struct {
		vals []int64
		want Value // Null: out of range
	}{
		{[]int64{p62, p62}, Null},
		{[]int64{p62, p62, -p62, -p62, -1}, NewBigint(-1)},
		{[]int64{math.MaxInt64, 1, math.MinInt64, -1, -1}, NewBigint(-2)},
		{[]int64{math.MinInt64, -1}, Null},
		{[]int64{-p62, -p62}, NewBigint(math.MinInt64)},
	} {
		t.Run(fmt.Sprint(tc.vals), func(t *testing.T) {
			e := New("sumrange")
			e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v BIGINT)`)
			e.MustExec(`CREATE TABLE one (id INTEGER)`)
			e.MustExec(`INSERT INTO one VALUES (0)`)
			for i, v := range tc.vals {
				e.MustExec(`INSERT INTO t VALUES (?, 0, ?)`, NewInt(int64(i)), NewBigint(v))
			}
			for _, sql := range []string{
				`SELECT SUM(v) FROM t`,                                                // chunk feeder, the implicit group
				`SELECT g, SUM(v) FROM t GROUP BY g`,                                  // chunk feeder
				`SELECT o.id, SUM(t.v) FROM t JOIN one o ON t.g = o.id GROUP BY o.id`, // row feeder, joined
			} {
				set := execAllPaths(t, e, sql)
				if !tc.want.IsNull() {
					if row := set.Rows[0]; len(set.Rows) != 1 || row[len(row)-1] != tc.want {
						t.Fatalf("%s: got %v, want SUM %v in one row", sql, set.Rows, tc.want)
					}
					continue
				}
				res, err := e.NewSession().Execute(sql)
				if err == nil || err.Error() != "SUM out of BIGINT range" || res.CA.SQLState != StateGeneral {
					t.Fatalf("%s: err %v, state %v; want SUM out of BIGINT range, %s", sql, err, res.CA.SQLState, StateGeneral)
				}
			}
		})
	}
}

// TestIntegerArithmeticOutOfRange: an integer + - * / or ABS whose result
// BIGINT cannot hold fails the statement on every path, with one error
// text and SQLSTATE, where it used to wrap around — and the results at
// the edges of the range are answered.
func TestIntegerArithmeticOutOfRange(t *testing.T) {
	e := vecEngine(t, 500)
	for _, sql := range []string{
		`SELECT MAX(id * 4611686018427387904 * 4) FROM vt`, // answered 0 when it wrapped
		`SELECT SUM(a + 9223372036854775807) FROM vt WHERE a > 0`,
		`SELECT a, MIN(id - 9223372036854775807 - 2) FROM vt GROUP BY a`,
		`SELECT id FROM vt WHERE id * 4611686018427387904 > 0`,
		`SELECT id * 4611686018427387904 FROM vt WHERE a > 40`,
		`SELECT 9223372036854775807 + 1`,
		`SELECT (-9223372036854775807 - 1) / -1`,
		`SELECT ABS(-9223372036854775807 - 1)`, // answered -9223372036854775808
		`SELECT CAST(1e19 AS BIGINT)`,          // the three CASTs answered -9223372036854775808
		`SELECT CAST(-1e19 AS BIGINT)`,
		`SELECT CAST(9223372036854775807.0 AS BIGINT)`, // 2^63
	} {
		if set := execAllPaths(t, e, sql); set != nil {
			t.Fatalf("%s answered %v", sql, set.Rows)
		}
		res, err := e.NewSession().Execute(sql)
		if err == nil || err.Error() != errIntRange.Error() || res.CA.SQLState != StateGeneral {
			t.Fatalf("%s: err %v, state %v; want %v, %s", sql, err, res.CA.SQLState, errIntRange, StateGeneral)
		}
	}
	for sql, want := range map[string]int64{
		`SELECT 9223372036854775806 + 1`:                math.MaxInt64,
		`SELECT -9223372036854775807 - 1`:               math.MinInt64,
		`SELECT -4611686018427387904 * 2`:               math.MinInt64,
		`SELECT 3037000499 * 3037000499`:                3037000499 * 3037000499,
		`SELECT (-9223372036854775807 - 1) % -1`:        0,
		`SELECT (-9223372036854775807 - 1) / 1`:         math.MinInt64,
		`SELECT ABS(-9223372036854775807)`:              math.MaxInt64,
		`SELECT MAX(id * 18446744073709551) FROM vt`:    499 * 18446744073709551,
		`SELECT CAST(-9223372036854775808.0 AS BIGINT)`: math.MinInt64,
	} {
		set := execAllPaths(t, e, sql)
		if set == nil || len(set.Rows) != 1 || set.Rows[0][0].I != want {
			t.Fatalf("%s: got %v, want %d", sql, set, want)
		}
	}
	// A DOUBLE parameter stored into a BIGINT column converts the same way.
	e.MustExec(`CREATE TABLE big (v BIGINT)`)
	if res, err := e.NewSession().Execute(`INSERT INTO big VALUES (?)`, NewDouble(1e19)); !errors.Is(err, errIntRange) || res.CA.SQLState != StateGeneral {
		t.Fatalf("INSERT of 1e19: err %v, state %v", err, res.CA.SQLState)
	}
	if got := queryStrings(t, e, `SELECT COUNT(*) FROM big`); got[0][0] != "0" {
		t.Fatalf("the failed INSERT stored %v", got)
	}
}

// TestScalarBoundsDoNotWrap: SUBSTR's bounds and ROUND's scale answer
// the value SQL defines at the edges of their operands' ranges, where
// SUBSTR's end and start used to wrap (answering ”) and ROUND's scale
// overflowed (answering NaN or +Inf). SUBSTR counts its length from the
// start as written, before clipping to the string: positions 0 and 1 of
// SUBSTR('abc', 0, 2) leave only 'a'.
func TestScalarBoundsDoNotWrap(t *testing.T) {
	e := New("scalar")
	for sql, want := range map[string]Value{
		`SELECT SUBSTR('abc', 2, 9223372036854775807)`:                        NewString("bc"),
		`SELECT SUBSTR('abc', -9223372036854775807 - 1)`:                      NewString("abc"),
		`SELECT SUBSTR('abc', -9223372036854775807 - 1, 9223372036854775807)`: NewString(""),
		`SELECT SUBSTR('abc', 0, 2)`:                                          NewString("a"),
		`SELECT SUBSTR('abc', -1, 3)`:                                         NewString("a"),
		`SELECT SUBSTR('abc', 2, -1)`:                                         NewString(""),
		`SELECT SUBSTR('abc', -9223372036854775807 - 1, -1)`:                  NewString(""),
		`SELECT SUBSTR('abc', 4)`:                                             NewString(""),
		`SELECT SUBSTR('abc', 2)`:                                             NewString("bc"),
		`SELECT SUBSTR('abc', 1, 2)`:                                          NewString("ab"),
		`SELECT ROUND(1.5, 400)`:                                              NewDouble(1.5),
		`SELECT ROUND(1e300, 10)`:                                             NewDouble(1e300),
		`SELECT ROUND(1.5, -400)`:                                             NewDouble(0),
		`SELECT ROUND(3.567, 2)`:                                              NewDouble(3.57),
		`SELECT ROUND(1250, -2)`:                                              NewDouble(1300),
		`SELECT ROUND(-2.5)`:                                                  NewDouble(-3),
	} {
		set := execAllPaths(t, e, sql)
		if set == nil || len(set.Rows) != 1 || set.Rows[0][0] != want {
			t.Fatalf("%s: got %v, want %v", sql, set, want)
		}
	}
}

// TestIntegerNegationOutOfRange: negating the least BIGINT fails the
// statement as + - * / outside the range do — on the row path, in an
// aggregate argument the kernels abandon, and in a WHERE, which unary
// minus over an integer column keeps off the kernels — where it used to
// answer the operand itself.
func TestIntegerNegationOutOfRange(t *testing.T) {
	e := New("neg")
	e.MustExec(`CREATE TABLE n (id INTEGER, u BIGINT, d DOUBLE)`)
	e.MustExec(`INSERT INTO n VALUES (1, -9223372036854775807 - 1, -1.5), (2, 5, 2), (3, NULL, NULL)`)
	for _, tc := range []struct {
		sql    string
		params []Value
	}{
		{`SELECT -(-9223372036854775807 - 1)`, nil},
		{`SELECT -?`, []Value{NewBigint(math.MinInt64)}},
		{`SELECT MAX(-u) FROM n`, nil},
		{`SELECT id FROM n WHERE -u < 0`, nil}, // matched the row when it wrapped
		{`SELECT id, -u FROM n WHERE d < 0`, nil},
	} {
		if set := execAllPaths(t, e, tc.sql, tc.params...); set != nil {
			t.Fatalf("%s answered %v", tc.sql, set.Rows)
		}
		res, err := e.NewSession().Execute(tc.sql, tc.params...)
		if err == nil || err.Error() != errIntRange.Error() || res.CA.SQLState != StateGeneral {
			t.Fatalf("%s: err %v, state %v; want %v, %s", tc.sql, err, res.CA.SQLState, errIntRange, StateGeneral)
		}
	}
	before := e.VectorStats().Fallbacks
	if _, err := e.Exec(`SELECT MAX(-u) FROM n`); err == nil {
		t.Fatal("MAX(-u) answered")
	}
	if got := e.VectorStats().Fallbacks - before; got != 1 {
		t.Fatalf("MAX(-u): %d fallbacks, want 1: the fold over the kernels abandons", got)
	}
	for sql, want := range map[string]int64{
		`SELECT -(-9223372036854775807)`:      math.MaxInt64,
		`SELECT MIN(-u) FROM n WHERE u > 0`:   -5,
		`SELECT COUNT(*) FROM n WHERE -d > 0`: 1,
	} {
		set := execAllPaths(t, e, sql)
		if set == nil || len(set.Rows) != 1 || set.Rows[0][0].I != want {
			t.Fatalf("%s: got %v, want %d", sql, set, want)
		}
	}
	for sql, want := range map[string]string{
		`SELECT id FROM n WHERE -u < 0`: `filter: predicate per row`, // negation can leave BIGINT
		`SELECT id FROM n WHERE -d < 0`: `vector filter: compiled kernels`,
	} {
		lines, err := e.NewSession().Explain(sql)
		if err != nil || !strings.Contains(strings.Join(lines, "\n"), want) {
			t.Fatalf("Explain(%s) = %v, %v; want %q", sql, lines, err, want)
		}
	}
}

// TestIntArithAgainstBig holds the overflow tests of + - * / to math/big
// over the edges of the range, every pair.
func TestIntArithAgainstBig(t *testing.T) {
	edges := []int64{0, 1, -1, 2, -2, 3037000499, -3037000499, 3037000500, math.MaxInt32, math.MinInt32,
		1 << 62, -1 << 62, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}
	for _, x := range edges {
		for _, y := range edges {
			bx, by := big.NewInt(x), big.NewInt(y)
			for _, c := range []struct {
				op   string
				f    func(x, y int64) (int64, bool)
				want *big.Int
			}{
				{"+", addInt, new(big.Int).Add(bx, by)},
				{"-", subInt, new(big.Int).Sub(bx, by)},
				{"*", mulInt, new(big.Int).Mul(bx, by)},
			} {
				got, ok := c.f(x, y)
				if ok != c.want.IsInt64() || ok && got != c.want.Int64() {
					t.Fatalf("%d %s %d = %d, ok=%v; math/big says %v", x, c.op, y, got, ok, c.want)
				}
			}
			if y != 0 {
				q := new(big.Int).Quo(bx, by)
				if divOverflows(x, y) == q.IsInt64() {
					t.Fatalf("%d / %d: overflow %v; math/big says %v", x, y, divOverflows(x, y), q)
				}
			}
		}
	}
}
