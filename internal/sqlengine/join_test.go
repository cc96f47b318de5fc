package sqlengine

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// seedJoinCorpus builds two tables with every hashable key type,
// duplicate keys (fan-out), NULL keys on both sides, and rows that
// match nothing — the shapes that distinguish a correct hash join from
// a lucky one.
func seedJoinCorpus(t testing.TB) *Engine {
	t.Helper()
	e := New("joindb")
	e.MustExec(`CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER, di DOUBLE, s VARCHAR(16), bo BOOLEAN, ts TIMESTAMP)`)
	e.MustExec(`CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, di DOUBLE, s VARCHAR(16), bo BOOLEAN, ts TIMESTAMP)`)
	t0 := time.Date(2005, 9, 1, 12, 0, 0, 0, time.UTC)
	ins := func(table string, id, k int, kNull bool, di float64, s string, sNull bool, bo bool, tsOffset int) {
		kv := NewInt(int64(k))
		if kNull {
			kv = Null
		}
		sv := NewString(s)
		if sNull {
			sv = Null
		}
		_, err := e.Exec(fmt.Sprintf(`INSERT INTO %s VALUES (?, ?, ?, ?, ?, ?)`, table),
			NewInt(int64(id)), kv, NewDouble(di), sv, NewBool(bo),
			NewTimestamp(t0.Add(time.Duration(tsOffset)*time.Hour)))
		if err != nil {
			t.Fatal(err)
		}
	}
	ins("l", 1, 10, false, 10, "ann", false, true, 0)
	ins("l", 2, 20, false, 20.5, "bob", false, false, 1)
	ins("l", 3, 10, false, 10, "carol", false, true, 0)
	ins("l", 4, 0, true, 30, "dan", false, false, 2) // NULL key
	ins("l", 5, 99, false, 99, "eve", true, true, 5) // matches nothing
	ins("r", 1, 10, false, 10, "ann", false, true, 0)
	ins("r", 2, 10, false, 11, "zed", false, false, 3)
	ins("r", 3, 20, false, 20.5, "bob", false, true, 1)
	ins("r", 4, 0, true, 10, "ann", false, true, 0)    // NULL key
	ins("r", 5, 77, false, 77, "gil", false, false, 7) // matches nothing
	return e
}

// dumpSet renders a result set canonically — column metadata plus every
// value with its runtime type — so two executions can be compared for
// byte-identical output including row order.
func dumpSet(rs *ResultSet) string {
	var b strings.Builder
	for _, c := range rs.Columns {
		fmt.Fprintf(&b, "%s:%s:%s|", c.Name, c.Type, c.Table)
	}
	b.WriteByte('\n')
	for _, r := range rs.Rows {
		for _, v := range r {
			if v.IsNull() {
				b.WriteString("NULL,")
			} else {
				fmt.Fprintf(&b, "%s(%s),", v.Type, v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// joinCorpus is every join shape the equivalence test runs through
// both execution paths. No ORDER BY: output order itself is part of
// the contract.
var joinCorpus = []string{
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`,
	`SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k`,
	`SELECT l.id, r.id FROM l RIGHT JOIN r ON l.k = r.k`,
	`SELECT r.id, l.id FROM r JOIN l ON r.k = l.k`,
	`SELECT l.id, r.id FROM l JOIN r ON l.di = r.k`,                              // DOUBLE = INTEGER cross-width
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.di`,                              // INTEGER = DOUBLE cross-width
	`SELECT l.id, r.id FROM l LEFT JOIN r ON l.di = r.di`,                        // DOUBLE = DOUBLE
	`SELECT l.s, r.s FROM l JOIN r ON l.s = r.s`,                                 // VARCHAR key, NULL on left
	`SELECT l.id, r.id FROM l JOIN r ON l.bo = r.bo`,                             // BOOLEAN key, heavy fan-out
	`SELECT l.id, r.id FROM l JOIN r ON l.ts = r.ts`,                             // TIMESTAMP key
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND l.id < r.id`,               // residual conjunct
	`SELECT l.id, r.id FROM l JOIN r ON l.id < r.id AND l.k = r.k`,               // equi conjunct second
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND r.bo = TRUE`,               // constant residual
	`SELECT a.id, b.id FROM l a JOIN l b ON a.k = b.k`,                           // self join via aliases
	`SELECT l.id, r.id, b.id FROM l JOIN r ON l.k = r.k JOIN l b ON r.id = b.id`, // chained joins
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k WHERE r.bo = FALSE`,
	`SELECT l.id, COUNT(*) FROM l JOIN r ON l.k = r.k GROUP BY l.id`,
	`SELECT l.id, r.id FROM l JOIN r ON l.k < r.k`,     // non-equi: every pair a candidate
	`SELECT l.id, r.id FROM l JOIN r ON l.k + 0 = r.k`, // expression side: no equi key
	`SELECT l.id, r.id FROM l RIGHT JOIN r ON l.s = r.s AND l.id <> r.id`,
	// An ON that fails on a pair the key rules out: r.id = 4 has a NULL k.
	`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND 1 / (r.id - 4) > 0`,
	`SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND 1 / (r.id - 4) > 0`,
	`SELECT l.id, r.id FROM l RIGHT JOIN r ON 1 / (l.id - 4) > 0 AND l.k = r.k`,
	// A VARCHAR key column holding integers, an INTEGER one holding
	// strings: their rows are listed by scan.
	`SELECT l.id FROM l JOIN (SELECT s AS v FROM r UNION ALL SELECT k FROM r) u ON l.s = u.v`,
	`SELECT u.v, l.id FROM (SELECT s AS v FROM r UNION ALL SELECT k FROM r) u JOIN l ON u.v = l.s`,
	`SELECT l.id FROM l JOIN (SELECT k AS v FROM r UNION ALL SELECT s FROM r) u ON l.k = u.v`,
}

// TestHashJoinMatchesNestedLoop runs the corpus with the candidates
// listed through the hash table and by a scan of every pair, and requires
// byte-identical output — values, runtime types, column metadata and row
// order — or the same error text.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	for _, sql := range joinCorpus {
		t.Run(sql, func(t *testing.T) {
			run := func(disable bool) string {
				e := seedJoinCorpus(t)
				e.SetHashJoinDisabled(disable)
				res, err := e.Exec(sql)
				if err != nil {
					return "error: " + err.Error()
				}
				return dumpSet(res.Set)
			}
			hash, scan := run(false), run(true)
			if hash != scan {
				t.Fatalf("hash listing diverges from scan listing for %q:\n--- hash ---\n%s\n--- scan ---\n%s", sql, hash, scan)
			}
		})
	}
}

// TestJoinCandidateRule pins what both listings answer where a separate
// hash path and nested loop once disagreed, or where a hash key
// contradicts its class. The ON is evaluated
// only on pairs whose keys are non-NULL and equal, so a residual that
// divides by zero on the pairs with r.id = 4, whose key is NULL, never
// runs; and a UNION-typed key column that holds a value of another type
// than it declares fails with Compare's error, whichever side it is on.
func TestJoinCandidateRule(t *testing.T) {
	for _, tc := range []struct{ sql, want string }{
		{`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND 1 / (r.id - 4) > 0`, ``},
		{`SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k AND 1 / (r.id - 4) > 0`,
			"INTEGER(1),NULL,\nINTEGER(2),NULL,\nINTEGER(3),NULL,\nINTEGER(4),NULL,\nINTEGER(5),NULL,\n"},
		{`SELECT l.id, r.id FROM l RIGHT JOIN r ON 1 / (l.id - 4) > 0 AND l.k = r.k`,
			"NULL,INTEGER(1),\nNULL,INTEGER(2),\nNULL,INTEGER(3),\nNULL,INTEGER(4),\nNULL,INTEGER(5),\n"},
		{`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k AND 1 / (r.id - 4) < 0`, "INTEGER(2),INTEGER(3),\n"},
		{`SELECT l.id FROM l JOIN (SELECT s AS v FROM r UNION ALL SELECT k FROM r) u ON l.s = u.v`, `error: cannot compare VARCHAR with INTEGER`},
		{`SELECT u.v, l.id FROM (SELECT s AS v FROM r UNION ALL SELECT k FROM r) u JOIN l ON u.v = l.s`, `error: cannot compare INTEGER with VARCHAR`},
		{`SELECT l.id FROM l JOIN (SELECT k AS v FROM r UNION ALL SELECT s FROM r) u ON l.k = u.v`, `error: cannot compare INTEGER with VARCHAR`}, // answered 1, 1, 2, 3, 3 when hashed
	} {
		for _, disable := range []bool{false, true} {
			e := seedJoinCorpus(t)
			e.SetHashJoinDisabled(disable)
			got := ""
			if res, err := e.Exec(tc.sql); err != nil {
				got = "error: " + err.Error()
			} else {
				got = strings.SplitN(dumpSet(res.Set), "\n", 2)[1]
			}
			if got != tc.want {
				t.Errorf("hash join disabled=%v: %s answered\n%s\nwant\n%s", disable, tc.sql, got, tc.want)
			}
		}
	}
}

// TestHashJoinEngages proves the hash table actually lists an
// equi-join's candidates (the equivalence test alone would pass even if the
// detector never fired).
func TestHashJoinEngages(t *testing.T) {
	e := seedJoinCorpus(t)
	before := e.db.hashJoins.Load()
	if _, err := e.Exec(`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`); err != nil {
		t.Fatal(err)
	}
	if e.db.hashJoins.Load() == before {
		t.Fatal("hash join did not engage for a plain equi-join")
	}
	// A non-equi ON must not engage it.
	before = e.db.hashJoins.Load()
	if _, err := e.Exec(`SELECT l.id, r.id FROM l JOIN r ON l.k < r.k`); err != nil {
		t.Fatal(err)
	}
	if e.db.hashJoins.Load() != before {
		t.Fatal("hash join engaged for a non-equi join")
	}
}

// TestHashJoinTypeMismatchStillErrors: comparing VARCHAR with INTEGER
// is a type error; with the hash join on or off the key is refused and
// the ON surfaces the error, not silently zero rows.
func TestHashJoinTypeMismatchStillErrors(t *testing.T) {
	e := seedJoinCorpus(t)
	for _, disable := range []bool{false, true} {
		e.SetHashJoinDisabled(disable)
		_, err := e.Exec(`SELECT l.id FROM l JOIN r ON l.s = r.k`)
		if err == nil {
			t.Fatalf("disable=%v: expected type-mismatch error", disable)
		}
	}
}

// TestHashJoinNaNBailout: a NaN key does not send the hash join to a
// scan. Under Compare a NaN equals only NaN, so every NaN,
// whatever its bits, hashes to one key, and both joins pair the NaN rows
// with each other and the 1s with each other, identically.
func TestHashJoinNaNBailout(t *testing.T) {
	run := func(disable bool) string {
		e := New("nan")
		e.SetHashJoinDisabled(disable)
		e.MustExec(`CREATE TABLE a (id INTEGER PRIMARY KEY, x DOUBLE)`)
		e.MustExec(`CREATE TABLE b (id INTEGER PRIMARY KEY, x DOUBLE)`)
		nan := Value{Type: TypeDouble, F: nanFloat()}
		mustParam(t, e, `INSERT INTO a VALUES (?, ?)`, NewInt(1), nan)
		mustParam(t, e, `INSERT INTO a VALUES (?, ?)`, NewInt(2), NewDouble(1))
		mustParam(t, e, `INSERT INTO b VALUES (?, ?)`, NewInt(1), NewDouble(1))
		mustParam(t, e, `INSERT INTO b VALUES (?, ?)`, NewInt(2), NewDouble(math.Float64frombits(0x7ff8000000000001))) // another NaN's bits
		before := e.db.hashJoins.Load()
		res, err := e.Exec(`SELECT a.id, b.id FROM a JOIN b ON a.x = b.x`)
		if err != nil {
			t.Fatal(err)
		}
		if hashed := e.db.hashJoins.Load() != before; hashed == disable {
			t.Fatalf("hash join disabled=%v, completed=%v", disable, hashed)
		}
		return dumpSet(res.Set)
	}
	hash, scan := run(false), run(true)
	if hash != scan {
		t.Fatalf("NaN keys diverge:\n--- hash ---\n%s--- scan ---\n%s", hash, scan)
	}
	if want := "id:INTEGER:a|id:INTEGER:b|\nINTEGER(1),INTEGER(2),\nINTEGER(2),INTEGER(1),\n"; hash != want {
		t.Fatalf("NaN join answered\n%s, want\n%s", hash, want)
	}
}

func nanFloat() float64 {
	z := 0.0
	return z / z
}

func mustParam(t testing.TB, e *Engine, sql string, params ...Value) {
	t.Helper()
	if _, err := e.Exec(sql, params...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestRowSlabGrowth: rows carved from a slab are all its own width, are
// distinct across every growth step — writing one row, or appending to
// it, never shows in another — and chunks grow from what the caller
// expects to slabChunkRows and no further.
func TestRowSlabGrowth(t *testing.T) {
	for _, expect := range []int{0, 1, 20, slabChunkRows, 5 * slabChunkRows} {
		const width = 3
		n := 3*slabChunkRows + 7
		s := newRowSlab(width, expect)
		rows := make([][]Value, n)
		biggest := 0
		for i := range rows {
			before := len(s.buf)
			rows[i] = s.next()
			if len(s.buf) > before { // a new chunk: its first row is already carved
				biggest = max(biggest, len(s.buf)/width+1)
			}
			if len(rows[i]) != width || cap(rows[i]) != width {
				t.Fatalf("expect %d: row %d has len %d cap %d, want %d", expect, i, len(rows[i]), cap(rows[i]), width)
			}
			for c := range rows[i] {
				rows[i][c] = NewInt(int64(i*width + c))
			}
		}
		for i := range rows {
			_ = append(rows[i], NewInt(-1)) // must reallocate, not spill into row i+1
		}
		for i, r := range rows {
			for c, v := range r {
				if v.I != int64(i*width+c) {
					t.Fatalf("expect %d: row %d cell %d = %v: rows alias", expect, i, c, v)
				}
			}
		}
		if biggest != slabChunkRows {
			t.Errorf("expect %d: largest chunk %d rows, want %d", expect, biggest, slabChunkRows)
		}
		first := newRowSlab(width, expect)
		first.next()
		want := min(max(expect, 1), slabChunkRows)
		if expect == 0 {
			want = slabFirstRows
		}
		if got := len(first.buf)/width + 1; got != want {
			t.Errorf("expect %d: first chunk %d rows, want %d", expect, got, want)
		}
	}
	if r := newRowSlab(0, 0).next(); r != nil {
		t.Errorf("zero-width slab handed out %v", r)
	}
}
