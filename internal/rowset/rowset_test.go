package rowset

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

func sampleSet() *sqlengine.ResultSet {
	return &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "id", Type: sqlengine.TypeInteger, Table: "emp"},
			{Name: "name", Type: sqlengine.TypeVarchar, Table: "emp"},
			{Name: "salary", Type: sqlengine.TypeDouble},
			{Name: "active", Type: sqlengine.TypeBoolean},
			{Name: "hired", Type: sqlengine.TypeTimestamp},
		},
		Rows: [][]sqlengine.Value{
			{sqlengine.NewInt(1), sqlengine.NewString("ann"), sqlengine.NewDouble(1.5),
				sqlengine.NewBool(true), sqlengine.NewTimestamp(time.Date(2005, 9, 1, 0, 0, 0, 0, time.UTC))},
			{sqlengine.NewInt(2), sqlengine.Null, sqlengine.Null,
				sqlengine.NewBool(false), sqlengine.Null},
		},
	}
}

func assertSetsEqual(t *testing.T, a, b *sqlengine.ResultSet) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("columns %d != %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i].Name != b.Columns[i].Name || a.Columns[i].Type != b.Columns[i].Type {
			t.Fatalf("column %d: %+v != %+v", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("rows %d != %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			av, bv := a.Rows[i][j], b.Rows[i][j]
			if av.IsNull() != bv.IsNull() {
				t.Fatalf("row %d col %d: null mismatch %v vs %v", i, j, av, bv)
			}
			if !av.IsNull() && av.String() != bv.String() {
				t.Fatalf("row %d col %d: %q != %q", i, j, av.String(), bv.String())
			}
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	reg := NewRegistry()
	size := map[string]int{}
	for _, uri := range reg.URIs() {
		codec, err := reg.Lookup(uri)
		if err != nil {
			t.Fatal(err)
		}
		in := sampleSet()
		data, err := codec.Encode(in)
		if err != nil {
			t.Fatalf("%s encode: %v", uri, err)
		}
		out, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s decode: %v\n%s", uri, err, data)
		}
		assertSetsEqual(t, in, out)
		size[uri] = len(data)
	}
	// E9: the same rows take fewer bytes as CSV than as SQLRowset XML.
	if size[FormatCSV] >= size[FormatSQLRowset] {
		t.Errorf("CSV %d bytes, SQLRowset %d", size[FormatCSV], size[FormatSQLRowset])
	}
}

func TestRegistryDefaults(t *testing.T) {
	reg := NewRegistry()
	uris := reg.URIs()
	if len(uris) != 3 {
		t.Fatalf("uris = %v", uris)
	}
	c, err := reg.Lookup("")
	if err != nil || c.FormatURI() != FormatSQLRowset {
		t.Fatalf("default lookup = %v, %v", c, err)
	}
	if _, err := reg.Lookup("urn:unknown"); err == nil {
		t.Fatal("unknown format should fail")
	}
}

func TestSQLRowsetStructure(t *testing.T) {
	data, err := SQLRowsetCodec{}.Encode(sampleSet())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"SQLRowset", "Metadata", `name="id"`, `type="INTEGER"`, `isNull="true"`} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
}

func TestWebRowSetStructure(t *testing.T) {
	data, err := WebRowSetCodec{}.Encode(sampleSet())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{"webRowSet", "column-count", "currentRow", "columnValue", "column-definition"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in output:\n%s", want, s)
		}
	}
}

func TestCSVSpecialValues(t *testing.T) {
	in := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{{Name: "v", Type: sqlengine.TypeVarchar}},
		Rows: [][]sqlengine.Value{
			{sqlengine.NewString(`\N`)}, // literal backslash-N, not NULL
			{sqlengine.Null},
			{sqlengine.NewString("with,comma")},
			{sqlengine.NewString("with\nnewline")},
			{sqlengine.NewString(`quote"inside`)},
			{sqlengine.NewString("")},
		},
	}
	data, err := CSVCodec{}.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CSVCodec{}.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].IsNull() || out.Rows[0][0].String() != `\N` {
		t.Fatalf("literal sentinel mangled: %v", out.Rows[0][0])
	}
	if !out.Rows[1][0].IsNull() {
		t.Fatal("NULL lost")
	}
	for i := 2; i <= 5; i++ {
		if out.Rows[i][0].String() != in.Rows[i][0].String() {
			t.Fatalf("row %d: %q != %q", i, out.Rows[i][0].String(), in.Rows[i][0].String())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := (SQLRowsetCodec{}).Decode([]byte(`<NotRowset/>`)); err == nil {
		t.Fatal("wrong root")
	}
	if _, err := (SQLRowsetCodec{}).Decode([]byte(`garbage`)); err == nil {
		t.Fatal("garbage")
	}
	if _, err := (WebRowSetCodec{}).Decode([]byte(`<wrong/>`)); err == nil {
		t.Fatal("wrong webrowset root")
	}
	if _, err := (CSVCodec{}).Decode(nil); err == nil {
		t.Fatal("empty csv")
	}
	// Row arity mismatch.
	bad := `<SQLRowset xmlns="` + NSDAIR + `"><Metadata><Column name="a" type="INTEGER"/></Metadata><Row><Value>1</Value><Value>2</Value></Row></SQLRowset>`
	if _, err := (SQLRowsetCodec{}).Decode([]byte(bad)); err == nil {
		t.Fatal("arity mismatch")
	}
}

// window is the slice of rs's rows a GetTuples (start, count) names.
func window(rs *sqlengine.ResultSet, start, count int) [][]sqlengine.Value {
	from, to := windowRange(len(rs.Rows), start, count)
	return rs.Rows[from:to]
}

func TestSlicePaging(t *testing.T) {
	rs := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "n", Type: sqlengine.TypeInteger}}}
	for i := 1; i <= 10; i++ {
		rs.Rows = append(rs.Rows, []sqlengine.Value{sqlengine.NewInt(int64(i))})
	}
	page := window(rs, 3, 4)
	if len(page) != 4 || page[0][0].I != 3 || page[3][0].I != 6 {
		t.Fatalf("page = %+v", page)
	}
	if p := window(rs, 9, 5); len(p) != 2 {
		t.Fatalf("tail page = %d", len(p))
	}
	if p := window(rs, 11, 5); len(p) != 0 {
		t.Fatalf("beyond end = %d", len(p))
	}
	if p := window(rs, 0, 2); len(p) != 2 || p[0][0].I != 1 {
		t.Fatalf("clamped start = %+v", p)
	}
	if p := window(rs, 1, 0); len(p) != 0 {
		t.Fatal("zero count should be empty")
	}
}

// Property: paging with any page size visits every row exactly once.
func TestQuickSliceCoverage(t *testing.T) {
	f := func(n uint8, page uint8) bool {
		total := int(n%50) + 1
		size := int(page%9) + 1
		rs := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "n", Type: sqlengine.TypeInteger}}}
		for i := 0; i < total; i++ {
			rs.Rows = append(rs.Rows, []sqlengine.Value{sqlengine.NewInt(int64(i))})
		}
		var got []int64
		for pos := 1; ; pos += size {
			p := window(rs, pos, size)
			if len(p) == 0 {
				break
			}
			for _, r := range p {
				got = append(got, r[0].I)
			}
		}
		if len(got) != total {
			return false
		}
		for i, v := range got {
			if v != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SQLRowset round trip preserves arbitrary strings.
func TestQuickSQLRowsetStrings(t *testing.T) {
	f := func(vals []string) bool {
		in := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "s", Type: sqlengine.TypeVarchar}}}
		for _, v := range vals {
			clean := strings.Map(func(r rune) rune {
				if r == '\t' || r == '\n' || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF && !(r >= 0xD800 && r <= 0xDFFF)) {
					return r
				}
				return -1
			}, v)
			clean = strings.ReplaceAll(clean, "\r", "")
			in.Rows = append(in.Rows, []sqlengine.Value{sqlengine.NewString(clean)})
		}
		data, err := (SQLRowsetCodec{}).Encode(in)
		if err != nil {
			return false
		}
		out, err := (SQLRowsetCodec{}).Decode(data)
		if err != nil || len(out.Rows) != len(in.Rows) {
			return false
		}
		for i := range in.Rows {
			if out.Rows[i][0].String() != in.Rows[i][0].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyResultSetRoundTrip(t *testing.T) {
	in := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "a", Type: sqlengine.TypeInteger}}}
	for _, codec := range []Codec{SQLRowsetCodec{}, WebRowSetCodec{}, CSVCodec{}} {
		data, err := codec.Encode(in)
		if err != nil {
			t.Fatalf("%s: %v", codec.FormatURI(), err)
		}
		out, err := codec.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", codec.FormatURI(), err)
		}
		if len(out.Rows) != 0 || len(out.Columns) != 1 {
			t.Fatalf("%s: out = %+v", codec.FormatURI(), out)
		}
	}
}

// TestSQLRowsetEncodeMatchesTree pins the direct byte encoder to the
// element-tree rendering: every page shape — full set, windows, empty
// window, tricky values — must marshal to identical bytes either way.
func TestSQLRowsetEncodeMatchesTree(t *testing.T) {
	tricky := &sqlengine.ResultSet{
		Columns: []sqlengine.ResultColumn{
			{Name: "s", Type: sqlengine.TypeVarchar, Table: "t<&>"},
			{Name: `q"uote`, Type: sqlengine.TypeVarchar},
			{Name: "n", Type: sqlengine.TypeNull}, // inferred per window
		},
		Rows: [][]sqlengine.Value{
			{sqlengine.NewString("a & b <c> \"d\""), sqlengine.NewString(""), sqlengine.Null},
			{sqlengine.NewString("plain"), sqlengine.Null, sqlengine.NewInt(7)},
		},
	}
	for _, rs := range []*sqlengine.ResultSet{sampleSet(), tricky} {
		for from := 0; from <= len(rs.Rows); from++ {
			for to := from; to <= len(rs.Rows); to++ {
				got := SQLRowsetCodec{}.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
				want := xmlutil.Marshal(sqlRowsetRangeElement(rs, from, to))
				if string(got) != string(want) {
					t.Fatalf("rows [%d,%d) diverged from tree rendering:\n got %s\nwant %s",
						from, to, got, want)
				}
			}
		}
	}
}
