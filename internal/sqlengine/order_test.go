package sqlengine

import (
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"
)

// TestNaNSortsInOneTotalOrder: ORDER BY, the bounded top-K and MIN/MAX
// order a DOUBLE column holding NaN in one total order — NaN after +Inf
// and equal only to NaN, the ordered index's — on every path, with and
// without an index on the column. When NaN compared equal to every
// number, ORDER BY b answered the rows in insertion order.
func TestNaNSortsInOneTotalOrder(t *testing.T) {
	e := New("nan")
	e.MustExec(`CREATE TABLE n (id INTEGER, b DOUBLE, g INTEGER)`)
	for i, b := range []float64{3, math.NaN(), 1, 2, math.NaN(), 0} {
		e.MustExec(`INSERT INTO n VALUES (?, ?, ?)`, NewInt(int64(i)), NewDouble(b), NewInt(int64(i%2)))
	}
	cases := []struct{ sql, want string }{
		{`SELECT b FROM n ORDER BY b`, "0 1 2 3 NaN NaN"},
		{`SELECT b FROM n ORDER BY b LIMIT 4`, "0 1 2 3"},
		{`SELECT id, b FROM n ORDER BY b DESC`, "1 NaN 4 NaN 0 3 3 2 2 1 5 0"},
		{`SELECT id, b FROM n ORDER BY b DESC LIMIT 3`, "1 NaN 4 NaN 0 3"},
		{`SELECT id FROM n ORDER BY b, id DESC LIMIT 5 OFFSET 3`, "0 4 1"},
		{`SELECT MIN(b), MAX(b) FROM n`, "0 NaN"},
		{`SELECT g, MIN(b), MAX(b) FROM n GROUP BY g ORDER BY 1`, "0 1 NaN 1 0 NaN"},
		{`SELECT MAX(b) FROM n WHERE id > 1 HAVING COUNT(*) > 0`, "NaN"},
		{`SELECT DISTINCT b FROM n ORDER BY b DESC`, "NaN 3 2 1 0"},
	}
	for _, index := range []bool{false, true} {
		if index {
			e.MustExec(`CREATE INDEX n_b ON n (b)`)
		}
		for _, tc := range cases {
			execAllPaths(t, e, tc.sql)
			var got []string
			for _, r := range e.MustExec(tc.sql).Set.Rows {
				for _, v := range r {
					got = append(got, v.String())
				}
			}
			if strings.Join(got, " ") != tc.want {
				t.Fatalf("index=%v: %s = %s, want %s", index, tc.sql, strings.Join(got, " "), tc.want)
			}
		}
	}
}

// TestIndexAnswersWhatAScanAnswers pins statements on which an index and
// a scan used to disagree, when predicates compared in one order and the
// ordered index kept its keys in another: a DOUBLE column holding NaN,
// where d = 5 matched the NaN row on a scan only, and a BIGINT column
// past 2^53 compared with a DOUBLE, where k = 2^53 matched 2^53 + 1 on a
// scan only. Each statement runs without and with an index on the
// column, on the kernels, the row plan and the oracle (execAllPaths); each
// DELETE runs by its planned target and by the walk.
func TestIndexAnswersWhatAScanAnswers(t *testing.T) {
	const big = 1 << 53
	nan := NewDouble(math.NaN())
	load := func(indexed bool) *Engine {
		e := New("one-order")
		e.MustExec(`CREATE TABLE n (id INTEGER, d DOUBLE, k BIGINT)`)
		for i, r := range [][2]Value{
			{NewDouble(1), NewBigint(big)},
			{nan, NewBigint(big + 1)},
			{NewDouble(5), NewBigint(1)},
			{NewDouble(7), NewBigint(-big - 1)},
		} {
			e.MustExec(`INSERT INTO n VALUES (?, ?, ?)`, NewInt(int64(i+1)), r[0], r[1])
		}
		if indexed {
			e.MustExec(`CREATE INDEX n_d ON n (d)`)
			e.MustExec(`CREATE INDEX n_k ON n (k)`)
		}
		return e
	}
	selects := []struct {
		sql    string
		params []Value
		want   string
	}{
		{`SELECT id FROM n WHERE d = 5`, nil, "3"},
		{`SELECT id FROM n WHERE d = ?`, []Value{nan}, "2"},
		{`SELECT id FROM n WHERE d > 1`, nil, "2 3 4"},
		{`SELECT id FROM n WHERE d <> 1`, nil, "2 3 4"},
		{`SELECT id FROM n WHERE d < ?`, []Value{nan}, "1 3 4"},
		{`SELECT id FROM n WHERE d >= ? ORDER BY d`, []Value{NewInt(5)}, "3 4 2"},
		{`SELECT id FROM n WHERE d BETWEEN 5 AND ?`, []Value{nan}, "2 3 4"},
		{`SELECT id FROM n WHERE d NOT BETWEEN ? AND 6`, []Value{NewInt(2)}, "1 2 4"},
		{`SELECT id FROM n WHERE d IN (?, 7)`, []Value{nan}, "2 4"},
		{`SELECT id FROM n WHERE k = ?`, []Value{NewDouble(big)}, "1"},
		{`SELECT id FROM n WHERE k = 9007199254740993`, nil, "2"},
		{`SELECT id FROM n WHERE k = 9007199254740992.0`, nil, "1"},
		{`SELECT id FROM n WHERE k > ?`, []Value{NewDouble(big)}, "2"},
		{`SELECT id FROM n WHERE k <= ?`, []Value{NewDouble(big)}, "1 3 4"},
		{`SELECT id FROM n WHERE k < ?`, []Value{NewDouble(-big)}, "4"},
		{`SELECT id FROM n WHERE k BETWEEN ? AND ?`, []Value{NewDouble(0.5), NewDouble(big)}, "1 3"},
		{`SELECT id FROM n WHERE k IN (?, 2.5)`, []Value{NewDouble(big)}, "1"},
		{`SELECT id FROM n ORDER BY d DESC`, nil, "2 4 3 1"},
		{`SELECT 9007199254740993 = 9007199254740992.0, 1 = CAST('NaN' AS DOUBLE)`, nil, "false false"},
	}
	deletes := []struct {
		sql    string
		params []Value
		want   int
	}{
		{`DELETE FROM n WHERE k = ?`, []Value{NewDouble(big)}, 1},
		{`DELETE FROM n WHERE d = 5`, nil, 1},
		{`DELETE FROM n WHERE d >= ?`, []Value{nan}, 1},
	}
	scanned := make([]string, len(selects)) // each answer without an index
	for _, indexed := range []bool{false, true} {
		e := load(indexed)
		for i, tc := range selects {
			set := execAllPaths(t, e, tc.sql, tc.params...)
			if got := words(set); got != tc.want {
				t.Errorf("indexed=%v: %s %v = %s, want %s", indexed, tc.sql, tc.params, got, tc.want)
			}
			if !indexed {
				scanned[i] = dumpSet(set)
			} else if got := dumpSet(set); got != scanned[i] {
				t.Errorf("%s %v: the index answers\n%s, a scan\n%s", tc.sql, tc.params, got, scanned[i])
			}
		}
		for _, tc := range deletes {
			for _, walk := range []bool{false, true} {
				e := load(indexed)
				e.MustExec(`SELECT COUNT(*) FROM n WHERE d > 0`) // builds the chunk cache the planned target may drain
				var res *Result
				var err error
				run := func() { res, err = e.Exec(tc.sql, tc.params...) }
				if walk {
					withWalk(e, run)
				} else {
					run()
				}
				if err != nil || res.UpdateCount != tc.want {
					t.Errorf("indexed=%v walk=%v: %s %v deleted %v rows (err=%v), want %d", indexed, walk, tc.sql, tc.params, res, err, tc.want)
				}
			}
		}
	}
}

// TestUpdateReadsBeforeItWrites: an UPDATE evaluates every target's
// WHERE and new image against the table as the statement found it, so a
// subquery in SET or WHERE does not see the statement's own earlier
// writes — planned, walked, with and without the kernels.
func TestUpdateReadsBeforeItWrites(t *testing.T) {
	for _, tc := range []struct {
		sql   string
		count int
		want  string
	}{
		{`UPDATE t SET x = (SELECT MAX(x) FROM t) + 1`, 4, "5 5 5 5"},
		{`UPDATE t SET x = x + 10 WHERE x < (SELECT MAX(x) FROM t)`, 3, "11 12 13 4"},
		{`UPDATE t SET x = x + (SELECT COUNT(*) FROM t WHERE x > 2) WHERE id IN (1, 3)`, 2, "3 2 5 4"},
	} {
		for _, walk := range []bool{false, true} {
			for _, vector := range []bool{false, true} {
				e := New("update")
				e.SetVectorDisabled(!vector)
				e.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)`)
				for i := 1; i <= 4; i++ {
					e.MustExec(`INSERT INTO t VALUES (?, ?)`, NewInt(int64(i)), NewInt(int64(i)))
				}
				var res *Result
				var err error
				run := func() { res, err = e.Exec(tc.sql) }
				if walk {
					withWalk(e, run)
				} else {
					run()
				}
				if err != nil || res.UpdateCount != tc.count {
					t.Fatalf("walk=%v vector=%v: %s updated %v rows (err=%v), want %d", walk, vector, tc.sql, res, err, tc.count)
				}
				if got := words(e.MustExec(`SELECT x FROM t ORDER BY id`).Set); got != tc.want {
					t.Errorf("walk=%v vector=%v: %s left x = %s, want %s", walk, vector, tc.sql, got, tc.want)
				}
			}
		}
	}
}

// words renders a result's cells, row after row, separated by spaces.
func words(set *ResultSet) string {
	if set == nil {
		return "<error>"
	}
	var out []string
	for _, r := range set.Rows {
		for _, v := range r {
			out = append(out, v.String())
		}
	}
	return strings.Join(out, " ")
}

// FuzzCompareOrder checks Compare over INTEGER, BIGINT and DOUBLE pairs
// and triples against an exact model — the values as big.Floats, a NaN
// equal only to NaN and after everything else —, so it is antisymmetric
// and transitive, NaN equals only NaN and -0 equals 0; and it checks that
// the readers which compare without calling Compare agree with it: the
// comparison, BETWEEN and IN kernels bound over a one- or two-row chunk
// (with their zone-map verdicts), vecCmp against the constant its kernel binds,
// and the ordered index's lookups and ranges over the three values. The
// seeds, which run with the tier-1 tests, cross NaN, ±0, ±Inf, ±2^53±1,
// ±2^63 and fractions in every type.
func FuzzCompareOrder(f *testing.F) {
	type special struct {
		kind uint8 // 0 INTEGER, 1 BIGINT, 2 DOUBLE
		i    int64
		f    float64
	}
	var specials []special
	for _, i := range []int64{0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -1<<53 + 1, -1 << 53, -1<<53 - 1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1} {
		specials = append(specials, special{kind: uint8(i & 1), i: i})
	}
	for _, x := range []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1<<53 - 1, 1 << 53, 1<<53 + 2, -1<<53 + 1, -1 << 53, 0x1p63, -0x1p63, 1.5, -1.5, 0.5} {
		specials = append(specials, special{kind: 2, f: x})
	}
	n := len(specials)
	for i, a := range specials {
		for j, b := range specials {
			c := specials[(i*7+j*3)%n]
			f.Add(a.kind+3*b.kind+9*c.kind, a.i, b.i, c.i, a.f, b.f, c.f)
		}
	}
	f.Fuzz(func(t *testing.T, kinds uint8, ia, ib, ic int64, fa, fb, fc float64) {
		var vals [3]Value
		for k, x := range []struct {
			i int64
			f float64
		}{{ia, fa}, {ib, fb}, {ic, fc}} {
			switch kinds % 3 {
			case 0:
				vals[k] = NewInt(x.i)
			case 1:
				vals[k] = NewBigint(x.i)
			default:
				vals[k] = NewDouble(x.f)
			}
			kinds /= 3
		}
		cmp := func(x, y Value) int {
			c, err := Compare(x, y)
			if err != nil {
				t.Fatalf("Compare(%v, %v): %v", x, y, err)
			}
			if m := modelOrder(x, y); c != m {
				t.Fatalf("Compare(%v %v, %v %v) = %d, the exact order says %d", x.Type, x, y.Type, y, c, m)
			}
			return c
		}
		for _, x := range vals {
			for _, y := range vals {
				if cmp(x, y) != -cmp(y, x) {
					t.Fatalf("Compare(%v, %v) is not antisymmetric", x, y)
				}
				if isNaNValue(x) && (cmp(x, y) == 0) != isNaNValue(y) {
					t.Fatalf("NaN = %v %v is %v", y.Type, y, cmp(x, y) == 0)
				}
				for _, z := range vals {
					xy, yz, xz := cmp(x, y), cmp(y, z), cmp(x, z)
					if xy <= 0 && yz <= 0 && (xz > 0 || (xy < 0 || yz < 0) && xz == 0) {
						t.Fatalf("not transitive: %v, %v, %v compare %d, %d, %d", x, y, z, xy, yz, xz)
					}
				}
			}
		}
		if c, _ := Compare(NewDouble(math.Copysign(0, -1)), NewInt(0)); c != 0 {
			t.Fatal("-0 <> 0")
		}

		// The chunk holds a, and c beside it when c is of a's type, so
		// the zone map has two values to bound.
		a, b, c := vals[0], vals[1], vals[2]
		tb := &Table{Columns: []Column{{Name: "c", Type: a.Type}}}
		rows := []Value{a}
		if c.Type == a.Type {
			rows = append(rows, c)
		}
		ch := &colChunk{}
		for id, v := range rows {
			ch.add(int64(id), []Value{v})
		}
		if !ch.rebuild(tb.Columns) {
			t.Fatal("chunk did not build")
		}
		kernel := func(p Expr, what string, want func(x Value) bool) {
			bp, ok := bindVecPred(p, nil, tb)
			if !ok {
				t.Fatalf("%s did not bind", what)
			}
			out := make([]int8, len(rows))
			bp.eval(ch, out)
			for r, x := range rows {
				mask, w := maskF, triF
				if out[r] == triT {
					mask = maskT
				}
				if want(x) {
					w = triT
				}
				switch {
				case out[r] != w:
					t.Fatalf("%v %v %s: kernel says %d, Compare %d", x.Type, x, what, out[r], w)
				case bp.possible(ch)&mask == 0:
					t.Fatalf("%v %v %s: the zone map [%v, %v] rules out the row's outcome", x.Type, x, what, ch.vecs[0].min, ch.vecs[0].max)
				}
			}
		}
		col, lb, lc := &boundColExpr{idx: 0}, &LiteralExpr{Value: b}, &LiteralExpr{Value: c}
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			kernel(&BinaryExpr{Op: op, Left: col, Right: lb}, op+" "+b.String(), func(x Value) bool {
				return opTri(op)[cmp(x, b)+1] == triT
			})
		}
		between := func(x Value) bool { return cmp(x, b) >= 0 && cmp(x, c) <= 0 }
		kernel(&BetweenExpr{Operand: col, Lo: lb, Hi: lc}, "BETWEEN", between)
		kernel(&BetweenExpr{Operand: col, Lo: lb, Hi: lc, Negate: true}, "NOT BETWEEN",
			func(x Value) bool { return !between(x) })
		kernel(&InExpr{Operand: col, List: []Expr{lb, lc}}, "IN",
			func(x Value) bool { return cmp(x, b) == 0 || cmp(x, c) == 0 })

		// vecCmp compares within the column's domain, against the value
		// inDomain restates b as: b itself, the one below it, or none.
		key, equal, ok := inDomain(b, a.Type)
		switch got, want := vecCmp(&ch.vecs[0], 0, key), cmp(a, b); {
		case !ok && want != 1,
			ok && equal && got != want,
			ok && !equal && (got <= 0) != (want < 0):
			t.Fatalf("vecCmp(%v %v, %v %v) = %d (equal %v, ok %v), Compare(%v) = %d", a.Type, a, key.Type, key, got, equal, ok, b, want)
		}

		ix := newOrderedIndex("ix", "t", "c", false)
		for id, v := range vals {
			ix.insert(v, int64(id))
		}
		for _, p := range vals {
			var eq, ge, gt, le, lt []int64
			for id, v := range vals {
				switch c := cmp(v, p); {
				case c == 0:
					eq, ge, le = append(eq, int64(id)), append(ge, int64(id)), append(le, int64(id))
				case c > 0:
					ge, gt = append(ge, int64(id)), append(gt, int64(id))
				default:
					le, lt = append(le, int64(id)), append(lt, int64(id))
				}
			}
			sorted := func(ids []int64) []int64 { slices.Sort(ids); return ids }
			for _, r := range []struct {
				got, want []int64
				what      string
			}{
				{ix.lookup(p), eq, "="},
				{sorted(ix.appendRange(nil, &ordBound{val: p, incl: true}, nil, false)), ge, ">="},
				{sorted(ix.appendRange(nil, &ordBound{val: p}, nil, false)), gt, ">"},
				{sorted(ix.appendRange(nil, nil, &ordBound{val: p, incl: true}, false)), le, "<="},
				{sorted(ix.appendRange(nil, nil, &ordBound{val: p}, false)), lt, "<"},
			} {
				if !slices.Equal(r.got, r.want) {
					t.Fatalf("index over %v: keys %s %v %v are rows %v, Compare says %v", vals, r.what, p.Type, p, r.got, r.want)
				}
			}
		}
	})
}

func isNaNValue(v Value) bool { return v.Type == TypeDouble && math.IsNaN(v.F) }

// modelOrder is FuzzCompareOrder's reference: numbers compared as exact
// big.Floats (where -0 equals 0), a NaN equal only to NaN and after
// every number.
func modelOrder(x, y Value) int {
	xn, yn := isNaNValue(x), isNaNValue(y)
	switch {
	case xn && yn:
		return 0
	case xn:
		return 1
	case yn:
		return -1
	}
	exact := func(v Value) *big.Float {
		if v.Type == TypeDouble {
			return new(big.Float).SetFloat64(v.F)
		}
		return new(big.Float).SetInt64(v.I)
	}
	return exact(x).Cmp(exact(y))
}
