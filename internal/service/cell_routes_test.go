package service_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dais/internal/client"
	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/sqlengine"
)

// Cells at the edges of the per-cell kernels of the bulk path: DOUBLEs
// that take strconv's path on either side and ones that take the plain
// decimal reader, the integer range's ends, and text with every byte
// that is escaped or scanned for, at every word boundary.
var (
	edgeDoubles = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e21, 0.1, -0.1,
		73500.5, 123456789012345, 12345.6789012345, 0.123456789012345, 1234567890123456, 1234567.890123456, 0.1234567890123456,
		9007199254740993, 1.7976931348623157e308, 2.675, 1e-7}
	edgeInts    = []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 0, -1, 9, 10, 99, 100, -100, 999999999999999999, 1e18}
	edgeStrings = []string{"", "a", `& < > " ` + "\r", "]]>", "x]]>y", "café ✓ 日本語", " ¼¦",
		"abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefg&", "&bcdefgh", "abcdefgh<", "abcdefghijklmno>",
		`"bcdefgh`, "abc\r\ndefgh", "abcdefgh\r", "é&é<é>é\"é", "&amp;lt;", strings.Repeat("<&>", 6)}
)

// TestEdgeCellsAgreeOnEveryRoute sends the edge cells down every route a
// consumer can take to them — SQLExecute in both XML formats,
// SQLExecuteFactory then GetSQLRowset, and SQLRowsetFactory then
// GetTuples in seeded random windows, reassembled, in both formats,
// decoded in the reply's own pass and from the dataset's bytes — and
// holds every route to the values stored, DOUBLEs bit for bit. (XML
// reads a carriage return as a line end, so text arrives with \r\n and
// \r as \n on every route.)
func TestEdgeCellsAgreeOnEveryRoute(t *testing.T) {
	eng := sqlengine.New("cells")
	eng.MustExec(`CREATE TABLE cells (id INTEGER PRIMARY KEY, i INTEGER, b BIGINT, d DOUBLE, s VARCHAR(64))`)
	n := max(len(edgeDoubles), len(edgeInts), len(edgeStrings))
	var want [][]sqlengine.Value
	for k := 0; k < n; k++ {
		row := []sqlengine.Value{sqlengine.NewInt(int64(k)), sqlengine.NewInt(edgeInts[k%len(edgeInts)]),
			sqlengine.NewBigint(edgeInts[(k+5)%len(edgeInts)]), sqlengine.NewDouble(edgeDoubles[k%len(edgeDoubles)]),
			sqlengine.NewString(edgeStrings[k%len(edgeStrings)])}
		eng.MustExec(`INSERT INTO cells VALUES (?, ?, ?, ?, ?)`, row...)
		row[4] = sqlengine.NewString(strings.ReplaceAll(strings.ReplaceAll(row[4].S, "\r\n", "\n"), "\r", "\n"))
		want = append(want, row)
	}
	eng.MustExec(`INSERT INTO cells VALUES (?, NULL, NULL, NULL, NULL)`, sqlengine.NewInt(int64(n)))
	want = append(want, []sqlengine.Value{sqlengine.NewInt(int64(n)), sqlengine.Null, sqlengine.Null, sqlengine.Null, sqlengine.Null})

	res := dair.NewSQLDataResource(eng)
	svc := core.NewDataService("relational", core.WithConfigurationMap(dair.StandardConfigurationMaps()...))
	ep := service.NewEndpoint(svc)
	ep.Register(res)
	startEndpoint(t, ep)
	ref := client.Ref(svc.Address(), res.AbstractName())
	c := client.New(nil)
	ctx := context.Background()
	const query = `SELECT id, i, b, d, s FROM cells ORDER BY id`

	check := func(route string, got *sqlengine.ResultSet, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", route, err)
		}
		if len(got.Rows) != len(want) {
			t.Fatalf("%s: %d rows, want %d", route, len(got.Rows), len(want))
		}
		for r, row := range got.Rows {
			for col, v := range row {
				if w := want[r][col]; !sameCell(v, w) {
					t.Fatalf("%s: row %d column %s is %s %q, want %s %q", route, r, got.Columns[col].Name, v.Type, v.String(), w.Type, w.String())
				}
			}
		}
	}

	for _, format := range []string{rowset.FormatSQLRowset, rowset.FormatWebRowSet} {
		name := format[strings.LastIndex(format, "/")+1:]
		direct, err := c.SQLExecute(ctx, ref, query, nil, format)
		if err != nil {
			t.Fatalf("SQLExecute/%s: %v", name, err)
		}
		if direct.Set == nil {
			t.Fatalf("SQLExecute/%s: the dataset did not decode", name)
		}
		check("SQLExecute/"+name, direct.Set, nil)
	}

	respRef, err := c.SQLExecuteFactory(ctx, ref, query, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := c.GetSQLRowset(ctx, respRef, 0)
	check("SQLExecuteFactory/GetSQLRowset", set, err)

	rng := rand.New(rand.NewSource(37))
	for _, format := range []string{rowset.FormatSQLRowset, rowset.FormatWebRowSet} {
		name := format[strings.LastIndex(format, "/")+1:]
		rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, format, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, inPass := range []bool{true, false} {
			route := fmt.Sprintf("SQLRowsetFactory/GetTuples/%s/in-pass=%v", name, inPass)
			all := &sqlengine.ResultSet{}
			for start := 1; start <= len(want); {
				count := 1 + rng.Intn(9)
				var window *sqlengine.ResultSet
				if inPass {
					window, err = c.GetTuplesSet(ctx, rowsetRef, start, count)
				} else {
					var data []byte
					var got string
					if data, got, err = c.GetTuples(ctx, rowsetRef, start, count); err == nil {
						codec, lerr := rowset.NewRegistry().Lookup(got)
						if lerr != nil {
							t.Fatalf("%s: %v", route, lerr)
						}
						window, err = codec.Decode(data)
					}
				}
				if err != nil {
					t.Fatalf("%s: window at %d: %v", route, start, err)
				}
				all.Columns = window.Columns
				all.Rows = append(all.Rows, window.Rows...)
				start += count
			}
			check(route, all, nil)
		}
	}
}

// sameCell compares two cells' types and values, DOUBLEs by their bits.
func sameCell(a, b sqlengine.Value) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case sqlengine.TypeNull:
		return true
	case sqlengine.TypeDouble:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqlengine.TypeVarchar:
		return a.S == b.S
	}
	return a.I == b.I
}
