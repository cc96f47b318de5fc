package sqlengine

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// A TIMESTAMP cell is Unix seconds and nanoseconds, not a time.Time.
// These are the instants where that could show — the first and last
// years RFC 3339 can write, the last nanosecond before the epoch, a
// literal in another zone — taken through coercion, ordering, equality,
// hash-join keys, grouping and the column chunks, with the renderings
// the time.Time cell gave (the same file passes on the commit before).
var timestampLiterals = []string{
	"2005-09-01T14:00:00.5+02:00",
	"9999-12-31",
	"1969-12-31T23:59:59.999999999Z",
	"0001-01-01 00:00:00",
	"1970-01-01T00:00:00Z",
	"1969-12-31 23:59:59",
}

var timestampsInOrder = []string{
	"0001-01-01T00:00:00Z",
	"1969-12-31T23:59:59Z",
	"1969-12-31T23:59:59.999999999Z",
	"1970-01-01T00:00:00Z",
	"2005-09-01T12:00:00.5Z",
	"9999-12-31T00:00:00Z",
}

func column(t *testing.T, s *Session, query string, params ...Value) []string {
	t.Helper()
	res, err := s.Execute(query, params...)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var out []string
	for _, row := range res.Set.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

func TestTimestampCellRoundTrip(t *testing.T) {
	for _, lit := range timestampLiterals {
		v, err := NewString(lit).Coerce(TypeTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := NewString(v.String()).Coerce(TypeTimestamp)
		if err != nil || !Equal(v, back) || v.Time() != back.Time() || v.Time().Location() != time.UTC {
			t.Fatalf("%s: renders %s, which reads back as %v, %v", lit, v, back, err)
		}
		if c, _ := Compare(v, back); c != 0 || string(v.AppendText(nil)) != v.String() {
			t.Fatalf("%s: Compare with itself = %d, AppendText %s, String %s", lit, c, v.AppendText(nil), v)
		}
		if got := NewTimestamp(v.Time().In(time.FixedZone("x", -7*3600))); got != v {
			t.Fatalf("%s: the same instant in another zone is %+v, not %+v", lit, got, v)
		}
	}

	eng := New("cells")
	eng.MustExec(`CREATE TABLE ev (id INTEGER PRIMARY KEY, at TIMESTAMP)`)
	eng.MustExec(`CREATE TABLE seen (id INTEGER PRIMARY KEY, at TIMESTAMP)`)
	s := eng.NewSession()
	for i, lit := range timestampLiterals {
		eng.MustExec(`INSERT INTO ev VALUES (?, ?)`, NewInt(int64(i)), NewString(lit))
		eng.MustExec(`INSERT INTO seen VALUES (?, ?)`, NewInt(int64(10+i)), NewString(lit))
	}
	eng.MustExec(`INSERT INTO ev VALUES (6, '1970-01-01 00:00:00'), (7, NULL)`)

	if got := column(t, s, `SELECT at FROM ev WHERE at IS NOT NULL AND id < 6 ORDER BY at`); fmt.Sprint(got) != fmt.Sprint(timestampsInOrder) {
		t.Errorf("ORDER BY at:\n got %v\nwant %v", got, timestampsInOrder)
	}
	if got, want := column(t, s, `SELECT e.id, s.id FROM ev e JOIN seen s ON e.at = s.at ORDER BY e.id, s.id`),
		[]string{"0|10", "1|11", "2|12", "3|13", "4|14", "5|15", "6|14"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("join on at: got %v, want %v", got, want)
	}
	if got, want := column(t, s, `SELECT at, COUNT(*) FROM ev GROUP BY at ORDER BY at`),
		[]string{"NULL|1", "0001-01-01T00:00:00Z|1", "1969-12-31T23:59:59Z|1", "1969-12-31T23:59:59.999999999Z|1",
			"1970-01-01T00:00:00Z|2", "2005-09-01T12:00:00.5Z|1", "9999-12-31T00:00:00Z|1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("GROUP BY at: got %v, want %v", got, want)
	}
	// The column chunks: a kernel scan with a timestamp bound, and the
	// chunk's values put back together.
	epoch, _ := NewString("1970-01-01T00:00:00Z").Coerce(TypeTimestamp)
	if got, want := column(t, s, `SELECT COUNT(*) FROM ev WHERE at < ?`, epoch), []string{"3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("at < epoch: got %v, want %v", got, want)
	}
	if got, want := column(t, s, `SELECT COUNT(*), MIN(at), MAX(at) FROM ev WHERE at >= ?`, epoch),
		[]string{"4|1970-01-01T00:00:00Z|9999-12-31T00:00:00Z"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("at >= epoch: got %v, want %v", got, want)
	}
	vec := colVec{typ: TypeTimestamp, nulls: newBitset(chunkRows)}
	for i, lit := range timestampLiterals {
		v, _ := NewString(lit).Coerce(TypeTimestamp)
		if !vec.push(i, v) || vec.value(i) != v || string(vec.appendGroupKey(nil, i)) != v.groupKey() {
			t.Errorf("column chunk: %s went in, %s came out (group key %q, want %q)", v, vec.value(i), vec.appendGroupKey(nil, i), v.groupKey())
		}
	}
	if vec.min.String() != timestampsInOrder[0] || vec.max.String() != timestampsInOrder[5] {
		t.Errorf("zone map: [%s, %s]", vec.min, vec.max)
	}
}
