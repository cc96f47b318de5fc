package rowset

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

// Property-based round-trip coverage for the three standard codecs.
// Each trial generates a result set from a seeded source — concrete
// column types, NULLs, empty strings, non-ASCII text, backslashes,
// CSV-hostile and XML-hostile characters, large cells — and asserts
// decode(encode(rs)) preserves every value and that a second encode is
// byte-identical to the first (the canonical-form property GetTuples
// paging relies on).
//
// Carriage returns are deliberately absent from the generator: XML 1.0
// line-end normalisation and encoding/csv both rewrite \r\n to \n on
// read, so \r is not representable in any of the three wire formats.

var cellTypes = []sqlengine.Type{
	sqlengine.TypeInteger,
	sqlengine.TypeBigint,
	sqlengine.TypeDouble,
	sqlengine.TypeVarchar,
	sqlengine.TypeBoolean,
	sqlengine.TypeTimestamp,
}

// stringPool holds the adversarial VARCHAR payloads: sentinel
// collisions, escape fodder, quoting edge cases and multi-byte text.
var stringPool = []string{
	"",
	"NULL",
	`\N`,
	`\E`,
	`\`,
	`\\`,
	`\x`,
	"plain",
	"héllo wörld",
	"日本語のテキスト",
	"смешанный текст",
	"😀🎉",
	"comma,separated",
	`quo"ted`,
	"line\nbreak",
	"tab\tseparated",
	"<a attr=\"v\">&amp;</a>",
	"]]>",
	strings.Repeat("x", 8192),
	strings.Repeat("数", 2048),
}

func randomValue(rng *rand.Rand, t sqlengine.Type) sqlengine.Value {
	if rng.Float64() < 0.15 {
		return sqlengine.Null
	}
	switch t {
	case sqlengine.TypeInteger:
		return sqlengine.NewInt(rng.Int63() - rng.Int63())
	case sqlengine.TypeBigint:
		switch rng.Intn(4) {
		case 0:
			return sqlengine.NewBigint(math.MaxInt64)
		case 1:
			return sqlengine.NewBigint(math.MinInt64)
		default:
			return sqlengine.NewBigint(rng.Int63() - rng.Int63())
		}
	case sqlengine.TypeDouble:
		switch rng.Intn(6) {
		case 0:
			return sqlengine.NewDouble(0)
		case 1:
			return sqlengine.NewDouble(math.Copysign(0, -1))
		case 2:
			return sqlengine.NewDouble(math.MaxFloat64)
		case 3:
			return sqlengine.NewDouble(math.SmallestNonzeroFloat64)
		default:
			return sqlengine.NewDouble(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20)))
		}
	case sqlengine.TypeVarchar:
		return sqlengine.NewString(stringPool[rng.Intn(len(stringPool))])
	case sqlengine.TypeBoolean:
		return sqlengine.NewBool(rng.Intn(2) == 0)
	case sqlengine.TypeTimestamp:
		sec := rng.Int63n(4102444800) // within [1970, 2100)
		return sqlengine.NewTimestamp(time.Unix(sec, rng.Int63n(1e9)))
	}
	return sqlengine.Null
}

func randomResultSet(rng *rand.Rand) *sqlengine.ResultSet {
	ncols := 1 + rng.Intn(6)
	rs := &sqlengine.ResultSet{}
	for i := 0; i < ncols; i++ {
		col := sqlengine.ResultColumn{
			Name: "c" + string(rune('a'+i)),
			Type: cellTypes[rng.Intn(len(cellTypes))],
		}
		if rng.Intn(3) == 0 {
			col.Table = "t"
		}
		rs.Columns = append(rs.Columns, col)
	}
	nrows := rng.Intn(24)
	for r := 0; r < nrows; r++ {
		row := make([]sqlengine.Value, ncols)
		for i, c := range rs.Columns {
			row[i] = randomValue(rng, c.Type)
		}
		rs.Rows = append(rs.Rows, row)
	}
	return rs
}

// equalValue compares by type, nullness and rendering: time.Time and
// negative-zero internals make struct equality stricter than the wire
// contract, which only promises the rendered value survives.
func equalValue(a, b sqlengine.Value) bool {
	return a.Type == b.Type && a.IsNull() == b.IsNull() && a.String() == b.String()
}

// assertEqualSets checks column metadata and every cell. CSV carries no
// table attribution, so callers set ignoreTable for it.
func assertEqualSets(t *testing.T, want, got *sqlengine.ResultSet, ignoreTable bool) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("columns: got %d, want %d", len(got.Columns), len(want.Columns))
	}
	for i, wc := range want.Columns {
		gc := got.Columns[i]
		if gc.Name != wc.Name || gc.Type != wc.Type {
			t.Fatalf("column %d: got %s %s, want %s %s", i, gc.Name, gc.Type, wc.Name, wc.Type)
		}
		if !ignoreTable && gc.Table != wc.Table {
			t.Fatalf("column %d table: got %q, want %q", i, gc.Table, wc.Table)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("rows: got %d, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if !equalValue(want.Rows[r][c], got.Rows[r][c]) {
				t.Fatalf("cell [%d][%d] (%s): got %s %q null=%v, want %s %q null=%v",
					r, c, want.Columns[c].Type,
					got.Rows[r][c].Type, got.Rows[r][c].String(), got.Rows[r][c].IsNull(),
					want.Rows[r][c].Type, want.Rows[r][c].String(), want.Rows[r][c].IsNull())
			}
		}
	}
}

func allCodecs() []Codec {
	return []Codec{SQLRowsetCodec{}, WebRowSetCodec{}, CSVCodec{}}
}

// TestCodecRoundTripProperty: for every codec, decode∘encode preserves
// all values, and encode∘decode∘encode is byte-identical — encoding is
// canonical, so a relay that decodes and re-encodes a rowset (the
// paper's data-transport scenario) cannot corrupt it.
func TestCodecRoundTripProperty(t *testing.T) {
	for _, c := range allCodecs() {
		c := c
		t.Run(c.FormatURI(), func(t *testing.T) {
			for seed := int64(0); seed < 60; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rs := randomResultSet(rng)
				data, err := c.Encode(rs)
				if err != nil {
					t.Fatalf("seed %d: encode: %v", seed, err)
				}
				dec, err := c.Decode(data)
				if err != nil {
					t.Fatalf("seed %d: decode: %v\nencoded: %s", seed, err, data)
				}
				assertEqualSets(t, rs, dec, c.FormatURI() == FormatCSV)
				again, err := c.Encode(dec)
				if err != nil {
					t.Fatalf("seed %d: re-encode: %v", seed, err)
				}
				if !bytes.Equal(data, again) {
					t.Fatalf("seed %d: re-encode not canonical\nfirst:  %s\nsecond: %s", seed, data, again)
				}
			}
		})
	}
}

// TestEncodeWindowMatchesSliceEncode: a window encoded from the pages
// of a buffer holding the set — cut into pages of a few rows, so that
// windows straddle them — is the encoding of the window's slice of the
// set, for every codec, across random windows including degenerate ones
// (start before 1, start past the end, zero and oversized counts).
func TestEncodeWindowMatchesSliceEncode(t *testing.T) {
	for _, c := range allCodecs() {
		c := c
		t.Run(c.FormatURI(), func(t *testing.T) {
			for seed := int64(100); seed < 140; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rs := randomResultSet(rng)
				buf := NewBuffer(NewSetSource(rs), BufferConfig{PageRows: 1 + rng.Intn(4)})
				for trial := 0; trial < 8; trial++ {
					sp := rng.Intn(len(rs.Rows)+4) - 1 // [-1, len+2]
					n := rng.Intn(len(rs.Rows) + 3)
					pages, err := buf.Pages(context.Background(), sp, n)
					if err != nil {
						t.Fatalf("seed %d sp=%d n=%d: Pages: %v", seed, sp, n, err)
					}
					paged := c.AppendWindow(nil, rs.Columns, pages...)
					from, to := windowRange(len(rs.Rows), sp, n)
					sliced := c.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
					if !bytes.Equal(paged, sliced) {
						t.Fatalf("seed %d sp=%d n=%d: paged bytes differ from sliced bytes\npaged:  %s\nsliced: %s",
							seed, sp, n, paged, sliced)
					}
				}
				buf.Release()
			}
		})
	}
}

// TestUntypedColumnWindowIdentity: computed (TypeNull) columns infer
// their wire type from the rows in view. A window whose rows disagree
// with the whole set about the first non-null value renders the same
// whether its rows come as one page or one page a row, and an all-NULL
// window decays to VARCHAR.
func TestUntypedColumnWindowIdentity(t *testing.T) {
	rs := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "expr", Type: sqlengine.TypeNull},
			{Name: "id", Type: sqlengine.TypeInteger},
		},
		Rows: [][]sqlengine.Value{
			{sqlengine.Null, sqlengine.NewInt(1)},
			{sqlengine.NewDouble(2.5), sqlengine.NewInt(2)},
			{sqlengine.Null, sqlengine.NewInt(3)},
		},
	}
	buf := NewBuffer(NewSetSource(rs), BufferConfig{PageRows: 1})
	defer buf.Release()
	for _, c := range allCodecs() {
		name := c.FormatURI()
		for _, w := range [][2]int{{1, 3}, {3, 1}, {2, 2}, {1, 0}} {
			pages, err := buf.Pages(context.Background(), w[0], w[1])
			if err != nil {
				t.Fatalf("%s window %v: %v", name, w, err)
			}
			from, to := windowRange(len(rs.Rows), w[0], w[1])
			paged := c.AppendWindow(nil, rs.Columns, pages...)
			if sliced := c.AppendWindow(nil, rs.Columns, rs.Rows[from:to]); !bytes.Equal(paged, sliced) {
				t.Fatalf("%s window %v: bytes differ\npaged:  %s\nsliced: %s", name, w, paged, sliced)
			}
		}
		// Window [3,1): only the NULL row — the untyped column decays to
		// VARCHAR.
		lone, err := c.Decode(c.AppendWindow(nil, rs.Columns, rs.Rows[2:3]))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if lone.Columns[0].Type != sqlengine.TypeVarchar {
			t.Fatalf("%s: all-NULL window typed the column %s, want VARCHAR", name, lone.Columns[0].Type)
		}
		// Whole-set decode resolves the computed column to its runtime
		// type (DOUBLE, from the first non-null value).
		data, err := c.Encode(rs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.Columns[0].Type != sqlengine.TypeDouble {
			t.Fatalf("%s: computed column decoded as %s, want DOUBLE", name, dec.Columns[0].Type)
		}
	}
}

// webRowSetTree renders rows [from, to) as the element tree the
// WebRowSet encoder's bytes are defined by: xmlutil.Marshal of this is
// the oracle the direct encoder is held to.
func webRowSetTree(rs *sqlengine.ResultSet, from, to int) *xmlutil.Element {
	root := xmlutil.NewElement(NSWebRowSet, "webRowSet")
	props := root.Add(NSWebRowSet, "properties")
	props.AddText(NSWebRowSet, "concurrency", "1007")
	props.AddText(NSWebRowSet, "rowset-type", "ResultSet.TYPE_SCROLL_INSENSITIVE")
	meta := root.Add(NSWebRowSet, "metadata")
	meta.AddText(NSWebRowSet, "column-count", fmt.Sprintf("%d", len(rs.Columns)))
	for i, c := range effectiveColumnsRange(rs, from, to) {
		cd := meta.Add(NSWebRowSet, "column-definition")
		cd.AddText(NSWebRowSet, "column-index", fmt.Sprintf("%d", i+1))
		cd.AddText(NSWebRowSet, "column-name", c.Name)
		cd.AddText(NSWebRowSet, "column-type-name", typeName(c.Type))
		if c.Table != "" {
			cd.AddText(NSWebRowSet, "table-name", c.Table)
		}
	}
	data := root.Add(NSWebRowSet, "data")
	for _, row := range rs.Rows[from:to] {
		cr := data.Add(NSWebRowSet, "currentRow")
		for _, v := range row {
			cv := cr.Add(NSWebRowSet, "columnValue")
			if v.IsNull() {
				cv.Add(NSWebRowSet, "null")
			} else {
				cv.SetText(v.String())
			}
		}
	}
	return root
}

// csvWriterEncode renders rows [from, to) through encoding/csv: the
// oracle the direct CSV encoder is held to.
func csvWriterEncode(t *testing.T, rs *sqlengine.ResultSet, from, to int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := make([]string, len(rs.Columns))
	for i, c := range effectiveColumnsRange(rs, from, to) {
		header[i] = c.Name + ":" + typeName(c.Type)
	}
	if err := w.Write(header); err != nil {
		t.Fatal(err)
	}
	rec := make([]string, len(rs.Columns))
	for _, row := range rs.Rows[from:to] {
		for i, v := range row {
			switch {
			case v.IsNull():
				rec[i] = nullSentinel
			case v.String() == "":
				rec[i] = emptySentinel
			case strings.HasPrefix(v.String(), `\`):
				rec[i] = `\` + v.String()
			default:
				rec[i] = v.String()
			}
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDirectEncodersMatchTheirOracles pins the WebRowSet and CSV
// encoders, which write bytes straight from the values, to what they
// replaced — the marshalled element tree and encoding/csv — over the
// generated corpus, every window of a set of strings chosen to be
// awkward for one format or the other, and a window long enough to pass
// the point where the encoders size their buffer.
func TestDirectEncodersMatchTheirOracles(t *testing.T) {
	awkward := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: `n,a"me`, Type: sqlengine.TypeVarchar, Table: "t<&>"},
			{Name: " lead", Type: sqlengine.TypeNull},
			{Name: "", Type: sqlengine.TypeDouble},
		},
	}
	for i, s := range append([]string{
		" leading space", "\ttab first", " nbsp first", " em space first", "trailing ",
		`\.`, `.`, `\,`, `\"q`, `"`, `""`, "a\r\nb", "\r", "\n", ",", `a,"b",c`, "<&>\"'",
	}, stringPool...) {
		awkward.Rows = append(awkward.Rows, []sqlengine.Value{
			sqlengine.NewString(s), randomValue(rand.New(rand.NewSource(int64(i))), sqlengine.TypeTimestamp),
			sqlengine.NewDouble(float64(i) / 7),
		})
	}
	sets := []*sqlengine.ResultSet{awkward, corpusSet(3 * sampleRows), {Columns: awkward.Columns}}
	for seed := int64(0); seed < 60; seed++ {
		sets = append(sets, randomResultSet(rand.New(rand.NewSource(seed))))
	}
	for n, rs := range sets {
		for from := 0; from <= len(rs.Rows); from++ {
			for _, to := range []int{from, min(from+1, len(rs.Rows)), len(rs.Rows)} {
				got := WebRowSetCodec{}.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
				if want := xmlutil.Marshal(webRowSetTree(rs, from, to)); !bytes.Equal(got, want) {
					t.Fatalf("set %d [%d,%d): WebRowSet diverged from tree rendering:\n got %s\nwant %s", n, from, to, got, want)
				}
				got = CSVCodec{}.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
				if want := csvWriterEncode(t, rs, from, to); !bytes.Equal(got, want) {
					t.Fatalf("set %d [%d,%d): CSV diverged from encoding/csv:\n got %q\nwant %q", n, from, to, got, want)
				}
			}
		}
	}
}
