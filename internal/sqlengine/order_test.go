package sqlengine

import (
	"math"
	"strings"
	"testing"
)

// TestNaNSortsInOneTotalOrder: ORDER BY, the bounded top-K and MIN/MAX
// order a DOUBLE column holding NaN in one total order — NaN after +Inf
// and equal only to NaN, the ordered index's — on every path, with and
// without an index on the column. Under Compare, where NaN equals every
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
