package xmlutil

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// parseFixed is the parser as it was before chunks were sized from the
// document and names taken from the vocabulary: 128-element chunks
// whatever the input, every name interned per parse.
func parseFixed(data []byte, verbatim []Name) (*Element, error) {
	b := &treeBuilder{verbatim: verbatim, fixedChunks: true}
	b.tok.noVocabulary = true
	b.tok.Reset(data)
	return b.run()
}

// sameTree reports the first difference between two trees, comparing
// everything a consumer can observe: names, attributes in order,
// children in order (Text and Raw byte for byte) and parent links.
func sameTree(got, want *Element, path string) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("%s: got %v, want %v", path, got, want)
	}
	if got == nil {
		return nil
	}
	path += "/" + want.Name.Local
	if got.Name != want.Name {
		return fmt.Errorf("%s: name %v, want %v", path, got.Name, want.Name)
	}
	if len(got.Attrs) != len(want.Attrs) {
		return fmt.Errorf("%s: %d attributes, want %d", path, len(got.Attrs), len(want.Attrs))
	}
	for i := range want.Attrs {
		if got.Attrs[i] != want.Attrs[i] {
			return fmt.Errorf("%s: attribute %d = %v, want %v", path, i, got.Attrs[i], want.Attrs[i])
		}
	}
	if len(got.Children) != len(want.Children) {
		return fmt.Errorf("%s: %d children, want %d", path, len(got.Children), len(want.Children))
	}
	for i, wc := range want.Children {
		switch w := wc.(type) {
		case *Element:
			g, ok := got.Children[i].(*Element)
			if !ok {
				return fmt.Errorf("%s: child %d is %T, want an element", path, i, got.Children[i])
			}
			if g.Parent() != got {
				return fmt.Errorf("%s: child %d has the wrong parent", path, i)
			}
			if err := sameTree(g, w, path); err != nil {
				return err
			}
		default: // Text, Raw: comparable
			if got.Children[i] != wc {
				return fmt.Errorf("%s: child %d = %#v, want %#v", path, i, got.Children[i], wc)
			}
		}
	}
	return nil
}

// fuzzSeeds returns FuzzParse's corpus: the checked-in seed files.
func fuzzSeeds(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, ok := strings.Cut(string(data), "\nstring(")
		if !ok {
			t.Fatalf("%s: not a string corpus entry", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(lit), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, s)
	}
	return out
}

// elementsDoc is a document of exactly n elements in the shape of a
// message: a namespaced root, leaves with an attribute and a text, and
// every seventh leaf nested one deeper.
func elementsDoc(n int) string {
	var b strings.Builder
	b.WriteString(`<m:root xmlns:m="urn:test:m" xmlns:d="urn:d">`)
	for made := 1; made < n; {
		if made%7 == 0 && made+2 <= n {
			fmt.Fprintf(&b, `<d:Dataset><m:inner i="%d">v%d</m:inner></d:Dataset>`, made, made)
			made += 2
			continue
		}
		fmt.Fprintf(&b, `<m:leaf i="%d">text %d</m:leaf>`, made, made)
		made++
	}
	b.WriteString(`</m:root>`)
	return b.String()
}

func countElements(e *Element) int {
	n := 1
	for _, c := range e.ChildElements() {
		n += countElements(c)
	}
	return n
}

// TestSizedChunksMatchFixed holds the parser with chunks sized from the
// document, and names from the vocabulary, to the one with fixed
// chunks: same tree, same Raw spans, same error text — over the fuzz
// corpus, FuzzParse's inline seeds, TestParseBytesVerbatim's shapes and
// documents that end inside the first chunk, inside a later one, and
// exactly on a boundary.
func TestSizedChunksMatchFixed(t *testing.T) {
	docs := append(fuzzSeeds(t),
		`<a/>`,
		`<ns:a xmlns:ns="urn:x" k="v"><b>text</b><!--c--></ns:a>`,
		`<a xmlns="urn:d"><b xmlns=""><c/></b>tail</a>`,
		`<?xml version="1.0" encoding="utf-8"?><a>&lt;&amp;&gt;</a>`,
		`<a><![CDATA[<raw>]]></a>`,
		"<a>\xff\xfe</a>",
		`<e xmlns:o="urn:o"><b><r:x xmlns:r="urn:r">t<r:y/></r:x></b><b><o:x/></b><b>text</b></e>`,
		`<e xmlns:d="urn:d"><d:Dataset><r:rows xmlns:r="urn:r"><r:row a="1">x &amp; y</r:row></r:rows></d:Dataset><d:Dataset><rows/></d:Dataset></e>`,
		// rejected documents: the error must be the same one
		``, `<a>`, `<a></b>`, `<a/><b/>`, `<a>&bogus;</a>`, `<a b=c/>`, `<a><b></a>`,
		`<e xmlns:d="urn:d"><d:Dataset><r:a xmlns:r="urn:r"></r:b></d:Dataset></e>`,
	)
	for _, n := range []int{1, 15, 128, 129, 257, 5000} {
		doc := elementsDoc(n)
		root, err := ParseString(doc)
		if err != nil || countElements(root) != n {
			t.Fatalf("elementsDoc(%d) has %d elements (%v)", n, countElements(root), err)
		}
		docs = append(docs, doc)
	}
	for _, verbatim := range [][]Name{nil, {{Space: "urn:d", Local: "Dataset"}, {Local: "b"}}} {
		for _, doc := range docs {
			want, wantErr := parseFixed([]byte(doc), verbatim)
			got, gotErr := ParseBytesVerbatim([]byte(doc), verbatim)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%.60q: error %v, want %v", doc, gotErr, wantErr)
				continue
			}
			if err := sameTree(got, want, ""); err != nil {
				t.Errorf("%.60q (verbatim %v): %v", doc, verbatim != nil, err)
			}
		}
	}
}

// TestChunksSizedToDocument pins the point of the sizing: what a parse
// allocates follows the document's length, and a long document still
// costs one allocation per 128 elements.
func TestChunksSizedToDocument(t *testing.T) {
	allocated := func(data []byte, parse func([]byte, []Name) (*Element, error)) (bytes, allocs uint64) {
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := parse(data, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	small := []byte(elementsDoc(15))
	fixedBytes, _ := allocated(small, parseFixed)
	sizedBytes, _ := allocated(small, ParseBytesVerbatim)
	t.Logf("15 elements: %d B, fixed chunks %d B", sizedBytes, fixedBytes)
	if sizedBytes > fixedBytes/3 {
		t.Errorf("a 15-element document allocates %d B against %d B with fixed chunks, want a third or less", sizedBytes, fixedBytes)
	}
	large := []byte(elementsDoc(5000))
	fixedBytes, fixedAllocs := allocated(large, parseFixed)
	sizedBytes, sizedAllocs := allocated(large, ParseBytesVerbatim)
	t.Logf("5000 elements: %d B in %d allocations, fixed chunks %d B in %d", sizedBytes, sizedAllocs, fixedBytes, fixedAllocs)
	if sizedAllocs > fixedAllocs+4 || sizedBytes > fixedBytes+fixedBytes/50 {
		t.Errorf("a 5000-element document costs %d B in %d allocations against %d B in %d with fixed chunks: chunks are not reaching %d",
			sizedBytes, sizedAllocs, fixedBytes, fixedAllocs, arenaChunk)
	}
}

// TestVocabularyNamesAreTheSameStrings: a registered word and an
// unregistered one come out of a parse as == names either way, the
// registered one without a string of its own.
func TestVocabularyNamesAreTheSameStrings(t *testing.T) {
	const doc = `<v:VocabWord xmlns:v="urn:test:vocabulary" VocabAttr="1"><v:Stranger/><v:Stranger/></v:VocabWord>`
	with, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	without, err := parseFixed([]byte(doc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree(with, without, ""); err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	if !same(with.Name.Local, vocabulary["VocabWord"]) || !same(with.Name.Space, vocabulary["urn:test:vocabulary"]) ||
		!same(with.Attrs[0].Name.Local, vocabulary["VocabAttr"]) {
		t.Error("registered words were not taken from the vocabulary")
	}
	if same(without.Name.Local, vocabulary["VocabWord"]) {
		t.Error("the reference parse used the vocabulary")
	}
	kids := with.ChildElements()
	if !same(kids[0].Name.Local, kids[1].Name.Local) {
		t.Error("an unregistered name was not interned within the document")
	}
}

func init() { RegisterVocabulary("VocabWord", "VocabAttr", "urn:test:vocabulary") }
