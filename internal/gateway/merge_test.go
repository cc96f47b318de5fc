package gateway

import (
	"strings"
	"testing"

	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/xmlutil"
)

func shardRowset(t *testing.T, cols []sqlengine.ResultColumn, rows [][]sqlengine.Value) *xmlutil.Element {
	t.Helper()
	return rowset.SQLRowsetElement(&sqlengine.ResultSet{Columns: cols, Rows: rows})
}

func empColumns() []sqlengine.ResultColumn {
	return []sqlengine.ResultColumn{
		{Name: "id", Type: sqlengine.TypeInteger, Table: "emp"},
		{Name: "name", Type: sqlengine.TypeVarchar, Table: "emp"},
	}
}

func TestMergeRowsetsConcatenatesInShardOrder(t *testing.T) {
	cols := empColumns()
	a := shardRowset(t, cols, [][]sqlengine.Value{
		{sqlengine.NewInt(1), sqlengine.NewString("ada")},
		{sqlengine.NewInt(2), sqlengine.NewString("bob")},
	})
	b := shardRowset(t, cols, [][]sqlengine.Value{
		{sqlengine.NewInt(3), sqlengine.NewString("cyd")},
	})
	merged, err := mergeQueryResults([]*xmlutil.Element{a, b})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rowset.DecodeSQLRowsetElement(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("merged rows = %d, want 3", len(rs.Rows))
	}
	for i, want := range []string{"ada", "bob", "cyd"} {
		if got := rs.Rows[i][1].String(); got != want {
			t.Errorf("row %d name = %q, want %q (shard order must be preserved)", i, got, want)
		}
	}
}

func TestMergeRowsetsColumnMismatch(t *testing.T) {
	a := shardRowset(t, empColumns(), [][]sqlengine.Value{
		{sqlengine.NewInt(1), sqlengine.NewString("ada")},
	})
	b := shardRowset(t,
		[]sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger, Table: "emp"}},
		[][]sqlengine.Value{{sqlengine.NewInt(2)}},
	)
	if _, err := mergeQueryResults([]*xmlutil.Element{a, b}); err == nil ||
		!strings.Contains(err.Error(), "column count mismatch") {
		t.Fatalf("column mismatch not rejected: %v", err)
	}
}

func TestMergeSequencesConcatenatesItems(t *testing.T) {
	mk := func(texts ...string) *xmlutil.Element {
		seq := xmlutil.NewElement(ops.NSDAIX, "XMLSequence")
		for _, s := range texts {
			item := xmlutil.NewElement(ops.NSDAIX, "Item")
			item.SetText(s)
			seq.AppendChild(item)
		}
		return seq
	}
	merged, err := mergeQueryResults([]*xmlutil.Element{mk("a", "b"), mk("c")})
	if err != nil {
		t.Fatal(err)
	}
	kids := merged.ChildElements()
	if len(kids) != 3 {
		t.Fatalf("merged items = %d, want 3", len(kids))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got := kids[i].Text(); got != want {
			t.Errorf("item %d = %q, want %q", i, got, want)
		}
	}
}

func TestMergeMixedShapesRejected(t *testing.T) {
	count := xmlutil.NewElement(rowset.NSDAIR, "UpdateCount")
	count.SetText("1")
	seq := xmlutil.NewElement(ops.NSDAIX, "XMLSequence")
	if _, err := mergeQueryResults([]*xmlutil.Element{count, seq}); err == nil ||
		!strings.Contains(err.Error(), "mixed result shapes") {
		t.Fatalf("mixed shapes not rejected: %v", err)
	}
}

func TestMergeSingleResultPassesThrough(t *testing.T) {
	// A lone shard result is passed through untouched — even a shape the
	// merger could not combine — so single-member aliases are fully
	// transparent.
	odd := xmlutil.NewElement("urn:x", "Custom")
	got, err := mergeQueryResults([]*xmlutil.Element{odd})
	if err != nil {
		t.Fatal(err)
	}
	if got != odd {
		t.Fatal("single result was not passed through")
	}
}
