package gateway

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

// consumerID is the MessageID of the consumer's request in these tests:
// the merged reply must relate to it.
const consumerID = "urn:uuid:consumer"

// shardReply renders a member's GenericQuery reply around result, with
// the reply headers a backend writes. extra, when not nil, is one more
// header entry: a namespace the other members lack moves the prefixes
// the encoder assigns.
func shardReply(result, extra *xmlutil.Element) []byte {
	return replyEnvelope(result, extra, "urn:uuid:to-gateway").Marshal()
}

func replyEnvelope(result, extra *xmlutil.Element, relatesTo string) *soap.Envelope {
	resp := ops.GenericQuery.NewResponse()
	resp.AppendChild(result)
	env := soap.NewEnvelope(resp)
	(&wsaddr.MessageHeaders{Action: ops.GenericQuery.Action + "Response", MessageID: "urn:uuid:member", RelatesTo: relatesTo}).Attach(env)
	if extra != nil {
		env.AddHeader(extra)
	}
	return env
}

func shardRowset(cols []sqlengine.ResultColumn, rows [][]sqlengine.Value) *xmlutil.Element {
	return rowset.SQLRowsetElement(&sqlengine.ResultSet{Columns: cols, Rows: rows})
}

func empColumns() []sqlengine.ResultColumn {
	return []sqlengine.ResultColumn{
		{Name: "id", Type: sqlengine.TypeInteger, Table: "emp"},
		{Name: "name", Type: sqlengine.TypeVarchar, Table: "emp"},
	}
}

// mergedResult merges the replies and returns the merged reply's
// result element, checking its RelatesTo on the way.
func mergedResult(t testing.TB, replies ...[]byte) *xmlutil.Element {
	t.Helper()
	merged, err := mergeReplies(replies, consumerID)
	if err != nil {
		t.Fatal(err)
	}
	env, err := soap.ParseEnvelope(merged)
	if err != nil {
		t.Fatalf("merged reply does not parse: %v\n%s", err, merged)
	}
	if got := wsaddr.FromEnvelope(env).RelatesTo; got != consumerID {
		t.Fatalf("merged reply RelatesTo = %q, want %q", got, consumerID)
	}
	kids := env.BodyEntry().ChildElements()
	if len(kids) != 1 {
		t.Fatalf("merged reply holds %d results", len(kids))
	}
	return kids[0]
}

func TestMergeRowsetsConcatenatesInShardOrder(t *testing.T) {
	cols := empColumns()
	a := shardReply(shardRowset(cols, [][]sqlengine.Value{
		{sqlengine.NewInt(1), sqlengine.NewString("ada")},
		{sqlengine.NewInt(2), sqlengine.NewString("bob")},
	}), nil)
	b := shardReply(shardRowset(cols, [][]sqlengine.Value{
		{sqlengine.NewInt(3), sqlengine.NewString("cyd")},
	}), nil)
	rs, err := rowset.DecodeSQLRowsetElement(mergedResult(t, a, b))
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
	a := shardReply(shardRowset(empColumns(), [][]sqlengine.Value{
		{sqlengine.NewInt(1), sqlengine.NewString("ada")},
	}), nil)
	b := shardReply(shardRowset(
		[]sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger, Table: "emp"}},
		[][]sqlengine.Value{{sqlengine.NewInt(2)}},
	), nil)
	if _, err := mergeReplies([][]byte{a, b}, consumerID); err == nil ||
		err.Error() != "gateway: shard 1: column count mismatch (2 vs 1)" {
		t.Fatalf("column mismatch not rejected: %v", err)
	}
	c := shardReply(shardRowset(
		[]sqlengine.ResultColumn{{Name: "id", Type: sqlengine.TypeInteger}, {Name: "name", Type: sqlengine.TypeDouble}},
		[][]sqlengine.Value{{sqlengine.NewInt(2), sqlengine.NewDouble(1)}},
	), nil)
	if _, err := mergeReplies([][]byte{a, c}, consumerID); err == nil ||
		err.Error() != "gateway: shard 1: column 1 mismatch (name VARCHAR vs name DOUBLE)" {
		t.Fatalf("column type mismatch not rejected: %v", err)
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
	// The empty first sequence is an empty-element tag: the items open it.
	for _, shards := range [][][]string{{{"a", "b"}, {"c"}}, {{}, {"a", "b"}, {}, {"c"}}} {
		var replies [][]byte
		for _, texts := range shards {
			replies = append(replies, shardReply(mk(texts...), nil))
		}
		kids := mergedResult(t, replies...).ChildElements()
		if len(kids) != 3 {
			t.Fatalf("merged items = %d, want 3", len(kids))
		}
		for i, want := range []string{"a", "b", "c"} {
			if got := kids[i].Text(); got != want {
				t.Errorf("item %d = %q, want %q", i, got, want)
			}
		}
	}
}

func TestMergeMixedShapesRejected(t *testing.T) {
	count := xmlutil.NewElement(rowset.NSDAIR, "UpdateCount")
	count.SetText("1")
	seq := xmlutil.NewElement(ops.NSDAIX, "XMLSequence")
	if _, err := mergeReplies([][]byte{shardReply(count, nil), shardReply(seq, nil)}, consumerID); err == nil ||
		!strings.Contains(err.Error(), "mixed result shapes") {
		t.Fatalf("mixed shapes not rejected: %v", err)
	}
}

func TestMergeSingleResultPassesThrough(t *testing.T) {
	// A lone shard reply is passed on as written — even a shape the
	// merger could not combine — save its RelatesTo, so single-member
	// aliases are fully transparent.
	odd := xmlutil.NewElement("urn:x", "Custom")
	odd.SetText("as written")
	got, err := mergeReplies([][]byte{shardReply(odd, nil)}, consumerID)
	if err != nil {
		t.Fatal(err)
	}
	if want := replyEnvelope(odd, nil, consumerID).Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("single reply not passed through:\n got %s\nwant %s", got, want)
	}
	// A consumer that sent no MessageID gets a reply relating to none.
	got, err = mergeReplies([][]byte{shardReply(odd, nil)}, "")
	if err != nil {
		t.Fatal(err)
	}
	if want := replyEnvelope(odd, nil, "").Marshal(); !bytes.Equal(got, want) {
		t.Fatalf("RelatesTo not dropped:\n got %s\nwant %s", got, want)
	}
}

// TestMemberRequestReaddresses: a member's request is the consumer's,
// with its To, MessageID and resource name its own and everything else
// — the RequestID, the query — as the consumer wrote it.
func TestMemberRequestReaddresses(t *testing.T) {
	body := ops.GenericQuery.NewRequest("urn:dais:cluster:emp")
	ops.GenericQueryMsg{Language: "urn:lang", Expression: "SELECT 1 & 2"}.Encode(ops.GenericQuery, body)
	consumer := soap.NewEnvelope(body)
	(&wsaddr.MessageHeaders{To: "http://gw/", Action: ops.GenericQuery.Action, MessageID: consumerID}).Attach(consumer)
	id := xmlutil.NewElement(soap.NSPipeline, "RequestID")
	id.SetText("req-1")
	consumer.AddHeader(id)
	wire := consumer.Marshal()
	env, err := soap.ParseEnvelope(wire)
	if err != nil {
		t.Fatal(err)
	}
	env.Wire = wire
	seen := map[string]bool{consumerID: true}
	for _, m := range []Member{{Backend: "http://a/sql", Resource: "urn:a&1"}, {Backend: "http://b/sql", Resource: "urn:b"}} {
		req, err := memberRequest(env, ops.GenericQuery, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := soap.ParseEnvelope(req.Wire)
		if err != nil {
			t.Fatalf("member request does not parse: %v\n%s", err, req.Wire)
		}
		h := wsaddr.FromEnvelope(got)
		if h.To != m.Backend || h.Action != ops.GenericQuery.Action || seen[h.MessageID] || h.MessageID == "" {
			t.Errorf("member %s: To %q, Action %q, MessageID %q", m.Backend, h.To, h.Action, h.MessageID)
		}
		seen[h.MessageID] = true
		if soap.RequestIDOf(got) != "req-1" {
			t.Errorf("member %s: RequestID %q", m.Backend, soap.RequestIDOf(got))
		}
		var msg ops.GenericQueryMsg
		if err := msg.Decode(ops.GenericQuery, got.BodyEntry()); err != nil || msg.Expression != "SELECT 1 & 2" || msg.Language != "urn:lang" {
			t.Errorf("member %s: query %+v (%v)", m.Backend, msg, err)
		}
		if name := ops.AbstractNameText(got.BodyEntry()); name != m.Resource || ops.AbstractNameText(req.BodyEntry()) != name {
			t.Errorf("member %s: addresses %q", m.Backend, name)
		}
	}
}

// TestMergeBuildsNoTree: merging spliced replies builds no element tree
// and encodes no envelope: its allocations do not grow with the rows.
func TestMergeBuildsNoTree(t *testing.T) {
	allocs := func(rows int) float64 {
		var data [][]sqlengine.Value
		for i := range rows {
			data = append(data, []sqlengine.Value{sqlengine.NewInt(int64(i)), sqlengine.NewString(fmt.Sprint("name-", i))})
		}
		replies := [][]byte{shardReply(shardRowset(empColumns(), data), nil), shardReply(shardRowset(empColumns(), data), nil)}
		return testing.AllocsPerRun(20, func() {
			if _, err := mergeReplies(replies, consumerID); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(2000)
	t.Logf("allocations a merge of two shards: %.0f (10 rows each), %.0f (2000 rows each)", small, large)
	// A tree costs an element a cell; the splice a few slices whatever
	// the rows.
	if large > small+20 {
		t.Fatalf("merging 2000-row shards allocates %.0f times, 10-row shards %.0f: the merge grows with the rows", large, small)
	}
}

// FuzzScatterSplice: shards' rowsets with edge cells — NULL, markup
// characters, CDATA-looking text, multi-byte text, doubles, empty shards
// — and members whose envelopes bind the prefixes differently. The
// spliced merge decodes to the rows of the shards, concatenated; where
// every member binds as the first does, it is byte for byte the reply
// the gateway rendered from the decoded rows before it spliced
// (rowset.SQLRowsetElement of the concatenation).
func FuzzScatterSplice(f *testing.F) {
	for seed := range int64(12) {
		f.Add(seed, uint8(2), uint8(0))
		f.Add(seed, uint8(3), uint8(5))
	}
	f.Add(int64(99), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, shards, rebind uint8) {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(shards)%4
		cols := fuzzColumns(r)
		var replies [][]byte
		var all [][]sqlengine.Value
		agree := true
		for i := range n {
			rows := fuzzRows(r, cols)
			all = append(all, rows...)
			var extra *xmlutil.Element
			if rebind>>i&1 == 1 && i > 0 {
				// A namespace sorting before the rest renumbers them all.
				extra = xmlutil.NewElement("a:urn:extra", "Hint")
				extra.SetText("x")
				agree = false
			}
			replies = append(replies, shardReply(shardRowset(cols, rows), extra))
		}
		// What the shards decode to, concatenated.
		var want *sqlengine.ResultSet
		for _, reply := range replies {
			env, err := soap.ParseEnvelope(reply)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := rowset.DecodeSQLRowsetElement(env.BodyEntry().ChildElements()[0])
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = rs
				continue
			}
			want.Rows = append(want.Rows, rs.Rows...)
		}

		got, err := rowset.DecodeSQLRowsetElement(mergedResult(t, replies...))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := (rowset.SQLRowsetCodec{}).AppendWindow(nil, got.Columns, got.Rows),
			(rowset.SQLRowsetCodec{}).AppendWindow(nil, want.Columns, want.Rows); !bytes.Equal(g, w) {
			t.Fatalf("spliced merge decodes to\n%s\nwant\n%s", g, w)
		}
		if !agree {
			return
		}
		merged, err := mergeReplies(replies, consumerID)
		if err != nil {
			t.Fatal(err)
		}
		if rendered := replyEnvelope(rowset.SQLRowsetElement(want), nil, consumerID).Marshal(); !bytes.Equal(merged, rendered) {
			t.Fatalf("spliced merge differs from the rendered one:\n got %s\nwant %s", merged, rendered)
		}
	})
}

var fuzzTypes = []sqlengine.Type{sqlengine.TypeInteger, sqlengine.TypeBigint, sqlengine.TypeDouble, sqlengine.TypeVarchar}

func fuzzColumns(r *rand.Rand) []sqlengine.ResultColumn {
	cols := make([]sqlengine.ResultColumn, 1+r.Intn(4))
	for i := range cols {
		cols[i] = sqlengine.ResultColumn{Name: fmt.Sprintf("c%d", i), Type: fuzzTypes[r.Intn(len(fuzzTypes))], Table: "t"}
	}
	return cols
}

var fuzzTexts = []string{"", "plain", "a & b", "<tag>", "]]>", "<![CDATA[x]]>", "ü€😀", "tab\there", `"q" 'a'`, " lead"}

var fuzzDoubles = []float64{0, 1.5, -2.25, 1e21, 1e-7, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789.125}

func fuzzRows(r *rand.Rand, cols []sqlengine.ResultColumn) [][]sqlengine.Value {
	rows := make([][]sqlengine.Value, r.Intn(5)) // 0: an empty shard
	for i := range rows {
		row := make([]sqlengine.Value, len(cols))
		for j, c := range cols {
			if r.Intn(5) == 0 {
				row[j] = sqlengine.Null
				continue
			}
			switch c.Type {
			case sqlengine.TypeInteger:
				row[j] = sqlengine.NewInt(r.Int63n(2000) - 1000)
			case sqlengine.TypeBigint:
				row[j] = sqlengine.Value{Type: sqlengine.TypeBigint, I: r.Int63() - r.Int63()}
			case sqlengine.TypeDouble:
				row[j] = sqlengine.NewDouble(fuzzDoubles[r.Intn(len(fuzzDoubles))])
			default:
				row[j] = sqlengine.NewString(fuzzTexts[r.Intn(len(fuzzTexts))])
			}
		}
		rows[i] = row
	}
	return rows
}
