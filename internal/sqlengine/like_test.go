package sqlengine

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// likeOracle is the regexp translation LIKE used to run on: the
// reference the rune-wise matcher must agree with, invalid UTF-8 in
// subject and pattern included (regexp reads an invalid byte as one
// U+FFFD, in the pattern as in the subject).
func likeOracle(pattern string) (*regexp.Regexp, error) {
	var b strings.Builder
	b.WriteString("(?s)^")
	for _, r := range pattern {
		switch r {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		default:
			b.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	b.WriteString("$")
	return regexp.Compile(b.String())
}

var likeSeeds = [][2]string{
	{"", ""}, {"", "%"}, {"abc", "abc"}, {"abc", "ab"}, {"abc", "a%"}, {"abc", "%c"}, {"abc", "%b%"},
	{"abc", "_b_"}, {"abc", "a_"}, {"abc", "%_"}, {"abc", "_%_%_"}, {"abc", "____"}, {"a%c", "a%c"},
	{"k3-000042-payload", "k3%"}, {"v-013", "%1_"}, {"aaaaaaaaab", "%a%a%a%b"}, {"aaaaaaaaaa", "%a%a%a%b"},
	{"héllo", "h_llo"}, {"héllo", "h%o"}, {"日本語", "_本_"}, {"日本語", "%語"}, {"a.c", "a.c"}, {"abc", "a.c"},
	{"line\nbreak", "line_break"}, {"line\nbreak", "%break"}, {"(x)[y]", "(x)[y]"}, {"x\\y", "x\\y"},
	// Invalid UTF-8: a stray byte is one character, and equals U+FFFD.
	{"a\xffc", "a_c"}, {"a\xffc", "a\xffc"}, {"a\xffc", "a�c"}, {"a�c", "a\xffc"}, {"a\xffc", "a%"},
	{"\xe6\x97", "__"}, {"\xe6\x97", "_"}, {"\xe6\x97\xa5", "_"}, {"ab\xff", "%\xff"}, {"ab\xff", "%\xfe"},
	{"\xc3\xa9", "\xc3%"}, {"x\xc3", "%\xc3"}, {"\xa9", "%\xa9%"}, {"é", "\xc3_"},
}

func checkLike(t *testing.T, s, pattern string) {
	t.Helper()
	re, err := likeOracle(pattern)
	if err != nil {
		t.Skip("pattern too large for the oracle")
	}
	p := compileLike(pattern)
	if got, want := p.match(s), re.MatchString(s); got != want {
		t.Fatalf("%q LIKE %q = %v, the regexp oracle says %v (kind %d)", s, pattern, got, want, p.kind)
	}
}

func TestLikeMatchesOracle(t *testing.T) {
	for _, c := range likeSeeds {
		checkLike(t, c[0], c[1])
	}
}

// FuzzLikeMatch holds the rune-wise LIKE matcher — fast paths and
// backtracking — to the regexp translation it replaced.
func FuzzLikeMatch(f *testing.F) {
	for _, c := range likeSeeds {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkLike)
}

// likeKernelRows and likeKernelPatterns seed FuzzLikeKernel: strings of
// 0, 7, 8, 9 and 16 bytes, ones that differ from a literal only in its
// eighth or ninth byte, multi-byte UTF-8, embedded NULs and a NULL; and
// patterns that are empty, all %, or 7-, 8- and 9-byte prefix and exact
// literals, with and without a NUL.
var (
	likeKernelRows = []any{"", "abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop", "abcdefgX", "abcdefgi",
		"abcdefghX", "ab", "ab\x00", "ab\x00c", "\x00", "héllo wörld", "日本語テキスト", nil, "a%c_e"}
	likeKernelPatterns = []string{"", "%", "abcdefg%", "abcdefgh%", "abcdefghi%", "abcdefg", "abcdefgh", "abcdefghi",
		"abcdefghijklmnop%", "ab\x00%", "ab\x00", "\x00%", "ab%", "héllo%", "日本%", "日本語テキスト", "%gh", "%def%", "a_c%"}
)

// likeKernelData encodes rows as FuzzLikeKernel reads them: per row a
// length byte, 0xff for NULL, then the string's bytes.
func likeKernelData(rows []any) []byte {
	var data []byte
	for _, r := range rows {
		s, ok := r.(string)
		if !ok {
			data = append(data, 0xff)
			continue
		}
		data = append(append(data, byte(len(s))), s...)
	}
	return data
}

// FuzzLikeKernel holds the LIKE kernel — prefix words, masks, the
// patterns the words cannot decide and the NULL pass — to the row matcher on
// every row of a chunk built from the fuzzed rows (repeated past 64 rows,
// so the NULL pass crosses bitmap words), and again after a rebuild that
// reuses the vector for other rows.
func FuzzLikeKernel(f *testing.F) {
	data := likeKernelData(likeKernelRows)
	for _, p := range likeKernelPatterns {
		f.Add(data, p)
	}
	f.Fuzz(func(t *testing.T, data []byte, pattern string) {
		var rows []Value
		for len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			if n == 0xff {
				rows = append(rows, Null)
				continue
			}
			n = min(n%24, len(data))
			rows = append(rows, NewString(string(data[:n])))
			data = data[n:]
		}
		if len(rows) == 0 {
			return
		}
		cols := []Column{{Name: "s", Type: TypeVarchar}}
		ch := &colChunk{}
		for id := 0; id < max(len(rows), 130) && id < chunkRows; id++ {
			ch.add(int64(id), []Value{rows[id%len(rows)]})
		}
		pred := &BinaryExpr{Op: "LIKE", Left: &boundColExpr{idx: 0}, Right: &LiteralExpr{Value: NewString(pattern)}}
		kernel, ok := bindVecPred(pred, nil, &Table{Columns: cols})
		if !ok {
			t.Fatalf("LIKE %q does not bind", pattern)
		}
		p := compileLike(pattern)
		out := make([]int8, chunkRows)
		for pass := 0; pass < 2; pass++ {
			if pass == 1 { // one row on, half as many
				ch.ids = ch.ids[1 : 1+ch.n/2]
				ch.n = len(ch.ids)
			}
			if !ch.rebuild(cols) {
				t.Fatal("rebuild refused a VARCHAR row")
			}
			kernel.eval(ch, out)
			for i := 0; i < ch.n; i++ {
				want := triN
				if v := ch.rowAt(i)[0]; !v.IsNull() {
					want = triF
					if p.match(v.S) {
						want = triT
					}
				}
				if out[i] != want {
					t.Fatalf("row %d of %d, %q LIKE %q: kernel %d, matcher %d", i, ch.n, ch.rowAt(i)[0].S, pattern, out[i], want)
				}
			}
		}
	})
}

// TestScalarFunctionArgsOnStack: a scalar function in a WHERE's residual
// runs once a candidate row, and takes its arguments without a heap
// slice: UPPER(payload) costs a candidate the one string it returns
// (BenchmarkResidualWhere/like_residual, E33). The figure is the slope
// between two candidate counts, so what a statement costs whatever its
// rows drops out.
func TestScalarFunctionArgsOnStack(t *testing.T) {
	e := New("allocs")
	s := e.NewSession()
	mustExecAll(t, s, `CREATE TABLE facts (id INTEGER PRIMARY KEY, payload VARCHAR(64))`)
	for i := range 7000 {
		if _, err := s.Execute(`INSERT INTO facts VALUES (?, ?)`, NewInt(int64(i)), NewString(fmt.Sprintf("k%d-%06d", i%7, i))); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(pattern string) float64 {
		sql := `SELECT COUNT(*) FROM facts WHERE payload LIKE '` + pattern + `' AND UPPER(payload) = 'X'`
		run := func() {
			if _, err := s.Execute(sql); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: plan cache, column chunks
		return testing.AllocsPerRun(5, run)
	}
	few, all := allocs("k1%"), allocs("k%") // 1 000 and 7 000 candidates
	if perCandidate := (all - few) / 6000; perCandidate > 1.05 {
		t.Fatalf("a candidate costs %.2f allocations (%.0f for 1 000, %.0f for 7 000), want 1: UPPER's result", perCandidate, few, all)
	}
}

func mustExecAll(t *testing.T, s *Session, stmts ...string) {
	t.Helper()
	for _, st := range stmts {
		if _, err := s.Execute(st); err != nil {
			t.Fatal(err)
		}
	}
}
