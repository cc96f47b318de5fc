package rowset

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dais/internal/filestore"
	"dais/internal/sqlengine"
)

// The encoders have one form, AppendWindow: a window given as the pages
// that hold its rows, rendered after whatever the caller's buffer
// already holds. These tests hold it to the bytes of the same rows as
// one page with nothing before them, however they are paged and
// whatever stands before them.

func appenders() []Codec {
	return []Codec{SQLRowsetCodec{}, WebRowSetCodec{}, CSVCodec{}}
}

// TestAppendWindowLeavesPrefixAndEqualsEncodeRange: the rendering does
// not depend on the buffer it is appended to (empty, holding a prefix,
// with room or without) nor on how the rows are cut into pages — it
// equals the range's rows rendered as one page into an empty buffer —
// and the prefix is not touched.
func TestAppendWindowLeavesPrefixAndEqualsEncodeRange(t *testing.T) {
	const prefix = "<reply>what was there"
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rs := randomResultSet(rng)
		if seed%4 == 0 {
			rs.Columns[0].Type = sqlengine.TypeNull // inferred per window
		}
		from := rng.Intn(len(rs.Rows) + 1)
		to := from + rng.Intn(len(rs.Rows)-from+1)
		var pages [][][]sqlengine.Value
		for at := from; at < to; {
			n := 1 + rng.Intn(to-at)
			pages = append(pages, rs.Rows[at:at+n])
			at += n
		}
		for _, c := range appenders() {
			want := c.AppendWindow(nil, rs.Columns, rs.Rows[from:to])
			for _, dst := range [][]byte{nil, []byte(prefix), append(make([]byte, 0, 1<<16), prefix...)} {
				got := c.AppendWindow(dst, rs.Columns, pages...)
				if !bytes.HasPrefix(got, dst) || !bytes.Equal(got[len(dst):], want) {
					t.Fatalf("seed %d, %T, rows [%d,%d) in %d pages after %q:\n got %s\nwant %s", seed, c, from, to, len(pages), dst, got, want)
				}
				if len(dst) > 0 && string(dst) != prefix {
					t.Fatalf("seed %d, %T: the prefix was written over: %q", seed, c, dst)
				}
			}
		}
	}
}

// pagesEncode is how a service renders a window now: straight from the
// buffer's pages.
func pagesEncode(buf *Buffer, c Codec, start, count int) ([]byte, error) {
	pages, err := buf.Pages(context.Background(), start, count)
	if err != nil {
		return nil, err
	}
	return c.AppendWindow(nil, buf.Columns(), pages...), nil
}

// windowEncode is how it did: the window assembled, then encoded.
func windowEncode(buf *Buffer, c Codec, start, count int) ([]byte, error) {
	set, err := buf.Window(context.Background(), start, count)
	if err != nil {
		return nil, err
	}
	return c.Encode(set)
}

// TestPagesEncodeMatchesWindowEncode: rendering from the pages is byte
// for byte what encoding the assembled window is — across page
// boundaries, from spilled pages, for a window that straddles what has
// been produced, where an untyped column is all NULL in one window and
// typed in the next, for an empty window — and fails with the same
// error where that fails.
func TestPagesEncodeMatchesWindowEncode(t *testing.T) {
	rs := corpusSet(103)
	for i := 0; i < 20; i++ {
		rs.Rows[i][3] = sqlengine.Null // "score" is untyped: VARCHAR in [1,20], DOUBLE after
	}
	windows := [][2]int{{1, 10}, {1, 20}, {15, 10}, {21, 5}, {5, 7}, {16, 16}, {17, 33}, {97, 100}, {1, 103}, {200, 5}, {3, 0}, {-4, 6}, {103, 1}}
	for name, cfg := range map[string]BufferConfig{
		"in-memory": {PageRows: 16},
		"spilled":   {PageRows: 16, MemCap: 1, Spill: filestore.NewStore("spill-test"), SpillName: "pages.spill"},
	} {
		// Production is slow enough that the later windows are asked for
		// before their rows exist.
		buf := NewBuffer(slowSource(rs, 20*time.Microsecond), cfg)
		for _, c := range appenders() {
			for _, w := range windows {
				got, err := pagesEncode(buf, c, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				want, err := windowEncode(buf, c, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s, %T, window (%d,%d): from pages\n%s\nfrom the window\n%s", name, c, w[0], w[1], got, want)
				}
			}
		}
		if name == "spilled" && buf.SpilledBytes() == 0 {
			t.Fatal("expected pages to spill")
		}
		buf.Release()
		_, gotErr := pagesEncode(buf, SQLRowsetCodec{}, 1, 5)
		_, wantErr := windowEncode(buf, SQLRowsetCodec{}, 1, 5)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s, released: pages err %v, window err %v", name, gotErr, wantErr)
		}
	}

	failing := NewBuffer(&scriptedSource{rs: rs, before: func(pos int) error {
		if pos >= 7 {
			return fmt.Errorf("mid-stream failure")
		}
		return nil
	}}, BufferConfig{PageRows: 4})
	defer failing.Release()
	// The window reaches past row 7, so both reads wait for the failure.
	_, gotErr := pagesEncode(failing, SQLRowsetCodec{}, 5, 4)
	_, wantErr := windowEncode(failing, SQLRowsetCodec{}, 5, 4)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), "mid-stream failure") {
		t.Fatalf("failed producer: pages err %v, window err %v", gotErr, wantErr)
	}
}

// FuzzRowsetRoundTrip: decode(encode(set)) is the set, and encoding it
// again gives the same bytes, in all three formats — for a generated
// set (seed) and for one built from the fuzzer's own text and numbers.
// Carriage returns are left out: no format here can carry one (XML and
// encoding/csv both normalise line ends on the way in).
func FuzzRowsetRoundTrip(f *testing.F) {
	f.Add(int64(1), "plain", "name", int64(7), math.Float64bits(0.25), int64(0))
	f.Add(int64(2), "", "", int64(math.MinInt64), math.Float64bits(math.Copysign(0, -1)), int64(-62135596800))
	f.Add(int64(3), `\N`, `a:b,"c"`, int64(-1), math.Float64bits(math.NaN()), int64(253402300799))
	f.Add(int64(4), `\E`, " lead", int64(0), math.Float64bits(123456.5), int64(-1))
	f.Add(int64(5), "a<&>\"'b]]>\n\tc", "n<&>", int64(math.MaxInt64), math.Float64bits(1e21), int64(1))
	f.Add(int64(6), `\\x, "q"`, "日本語", int64(42), math.Float64bits(math.Inf(-1)), int64(4102444800))
	f.Fuzz(func(t *testing.T, seed int64, s, name string, i int64, fbits uint64, sec int64) {
		if strings.ContainsRune(s+name, '\r') {
			t.Skip()
		}
		const yearOne, span = -62135596800, 253402300800 + 62135596800 // 0001-01-01 .. 9999-12-31
		at := time.Unix(yearOne+int64(uint64(sec)%span), int64(uint64(i)%1e9))
		crafted := &sqlengine.ResultSet{
			Columns: []sqlengine.ResultColumn{
				{Name: name, Type: sqlengine.TypeVarchar, Table: s}, {Name: "i", Type: sqlengine.TypeInteger}, {Name: "b", Type: sqlengine.TypeBigint},
				{Name: "f", Type: sqlengine.TypeDouble}, {Name: "ok", Type: sqlengine.TypeBoolean}, {Name: "at", Type: sqlengine.TypeTimestamp},
			},
			Rows: [][]sqlengine.Value{
				{sqlengine.NewString(s), sqlengine.NewInt(i), sqlengine.NewBigint(-i), sqlengine.NewDouble(math.Float64frombits(fbits)), sqlengine.NewBool(i&1 == 0), sqlengine.NewTimestamp(at)},
				{sqlengine.Null, sqlengine.Null, sqlengine.Null, sqlengine.Null, sqlengine.Null, sqlengine.Null},
				{sqlengine.NewString(name), sqlengine.NewInt(sec), sqlengine.NewBigint(sec), sqlengine.NewDouble(float64(i) / 1000), sqlengine.NewBool(true), sqlengine.NewTimestamp(at.Add(time.Nanosecond))},
			},
		}
		for _, rs := range []*sqlengine.ResultSet{randomResultSet(rand.New(rand.NewSource(seed))), crafted} {
			for _, c := range allCodecs() {
				data, err := c.Encode(rs)
				if err != nil {
					t.Fatalf("%s: encode: %v", c.FormatURI(), err)
				}
				dec, err := c.Decode(data)
				if err != nil {
					t.Fatalf("%s: decode: %v\nencoded: %q", c.FormatURI(), err, data)
				}
				assertEqualSets(t, rs, dec, c.FormatURI() == FormatCSV)
				if again, _ := c.Encode(dec); !bytes.Equal(data, again) {
					t.Fatalf("%s: re-encode not canonical\nfirst:  %q\nsecond: %q", c.FormatURI(), data, again)
				}
			}
		}
	})
}

// BenchmarkEncodeWindow renders one bulk window the two ways a caller
// can: into memory of the window's own (Encode), and after the contents
// of a buffer that is kept (a reply being written).
func BenchmarkEncodeWindow(b *testing.B) {
	set := bulkWindow(4096)
	codec := SQLRowsetCodec{}
	data, _ := codec.Encode(set)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := codec.Encode(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		var reply []byte
		for i := 0; i < b.N; i++ {
			reply = codec.AppendWindow(reply[:0], set.Columns, set.Rows)
		}
	})
}

// TestTimestampCellsOnTheWire: the instants where a cell of Unix seconds
// and nanoseconds could differ from the time.Time it replaced — year
// one, the last nanosecond before the epoch, year 9999, a literal in
// another zone — through the spill page codec and the three rowset
// codecs, held to the bytes the commit before produced.
func TestTimestampCellsOnTheWire(t *testing.T) {
	var rows [][]sqlengine.Value
	for _, lit := range []string{"0001-01-01 00:00:00", "1969-12-31T23:59:59.999999999Z", "9999-12-31", "2005-09-01T14:00:00.5+02:00"} {
		v, err := sqlengine.NewString(lit).Coerce(sqlengine.TypeTimestamp)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, []sqlengine.Value{v})
	}
	const spill = "0401060f01000000000000000000000000ffff060f010000000e7791f6ff3b9ac9ffffff060f01000000497784e70000000000ffff060f010000000ebaa8e4401dcd6500ffff"
	page := encodeSpillPage(rows)
	if got := fmt.Sprintf("%x", page); got != spill {
		t.Errorf("spill page:\n got %s\nwant %s", got, spill)
	}
	back, err := decodeSpillPage(page)
	if err != nil {
		t.Fatal(err)
	}
	const cells = `0001-01-01T00:00:00Z|1969-12-31T23:59:59.999999999Z|9999-12-31T00:00:00Z|2005-09-01T12:00:00.5Z|`
	rs := &sqlengine.ResultSet{Columns: []sqlengine.ResultColumn{{Name: "at", Type: sqlengine.TypeTimestamp}}, Rows: rows}
	around := [][2]string{{`<ns0:Row><ns0:Value>`, `</ns0:Value></ns0:Row>`},
		{`<ns0:currentRow><ns0:columnValue>`, `</ns0:columnValue></ns0:currentRow>`}, {"", "\n"}}
	for i, c := range allCodecs() {
		open, end := around[i][0], around[i][1]
		want := open + strings.ReplaceAll(strings.TrimSuffix(cells, "|"), "|", end+open) + end
		data, _ := c.Encode(rs)
		if !strings.Contains(string(data), want) {
			t.Errorf("%s: rows are not %q in\n%s", c.FormatURI(), want, data)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for r := range rows {
			if dec.Rows[r][0] != rows[r][0] || back[r][0] != rows[r][0] {
				t.Errorf("%s row %d: %+v went out, %+v came back (%+v from the spill page)", c.FormatURI(), r, rows[r][0], dec.Rows[r][0], back[r][0])
			}
		}
	}
}
