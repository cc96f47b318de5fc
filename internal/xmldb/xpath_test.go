package xmldb

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dais/internal/xmlutil"
)

const catalogDoc = `<catalog>
  <book id="1" genre="db">
    <title>Principles of Distributed Database Systems</title>
    <author>Ozsu</author>
    <price>85</price>
  </book>
  <book id="2" genre="grid">
    <title>The Grid</title>
    <author>Foster</author>
    <price>60</price>
  </book>
  <book id="3" genre="db">
    <title>Transaction Processing</title>
    <author>Gray</author>
    <price>110</price>
  </book>
  <editor>Pierson</editor>
</catalog>`

func parseDoc(t testing.TB, s string) *xmlutil.Element {
	t.Helper()
	e, err := xmlutil.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func selectNodes(t testing.TB, doc *xmlutil.Element, expr string) []*xmlutil.Element {
	t.Helper()
	xp, err := CompileXPath(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	nodes, err := xp.Select(doc)
	if err != nil {
		t.Fatalf("select %q: %v", expr, err)
	}
	return nodes
}

func evalValue(t testing.TB, doc *xmlutil.Element, expr string) XPathValue {
	t.Helper()
	xp, err := CompileXPath(expr)
	if err != nil {
		t.Fatalf("compile %q: %v", expr, err)
	}
	v, err := xp.Eval(doc)
	if err != nil {
		t.Fatalf("eval %q: %v", expr, err)
	}
	return v
}

func TestXPathChildSteps(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	if n := selectNodes(t, doc, "book"); len(n) != 3 {
		t.Fatalf("book = %d nodes", len(n))
	}
	if n := selectNodes(t, doc, "book/title"); len(n) != 3 {
		t.Fatalf("book/title = %d nodes", len(n))
	}
	titles := selectNodes(t, doc, "/catalog/book/title")
	if len(titles) != 3 || titles[1].Text() != "The Grid" {
		t.Fatalf("titles = %v", titles)
	}
}

func TestXPathDescendant(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	if n := selectNodes(t, doc, "//title"); len(n) != 3 {
		t.Fatalf("//title = %d", len(n))
	}
	if n := selectNodes(t, doc, "//book//author"); len(n) != 3 {
		t.Fatalf("//book//author = %d", len(n))
	}
	if n := selectNodes(t, doc, "descendant::price"); len(n) != 3 {
		t.Fatalf("descendant::price = %d", len(n))
	}
}

func TestXPathWildcardAndSelfParent(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	if n := selectNodes(t, doc, "*"); len(n) != 4 {
		t.Fatalf("* = %d", len(n))
	}
	if n := selectNodes(t, doc, "."); len(n) != 1 || n[0] != doc {
		t.Fatalf("self = %v", n)
	}
	n := selectNodes(t, doc, "book/title/..")
	if len(n) != 3 || n[0].Name.Local != "book" {
		t.Fatalf("parent = %v", n)
	}
}

func TestXPathAttributes(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	attrs := selectNodes(t, doc, "book/@id")
	if len(attrs) != 3 || attrs[0].Text() != "1" {
		t.Fatalf("@id = %v", attrs)
	}
	all := selectNodes(t, doc, "book[1]/@*")
	if len(all) != 2 {
		t.Fatalf("@* = %d", len(all))
	}
}

func TestXPathPositionalPredicates(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	n := selectNodes(t, doc, "book[2]")
	if len(n) != 1 || n[0].AttrValue("", "id") != "2" {
		t.Fatalf("book[2] = %v", n)
	}
	n = selectNodes(t, doc, "book[last()]")
	if len(n) != 1 || n[0].AttrValue("", "id") != "3" {
		t.Fatalf("book[last()] = %v", n)
	}
	n = selectNodes(t, doc, "book[position() < 3]")
	if len(n) != 2 {
		t.Fatalf("position()<3 = %d", len(n))
	}
}

func TestXPathValuePredicates(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	n := selectNodes(t, doc, "book[@genre='db']")
	if len(n) != 2 {
		t.Fatalf("genre=db = %d", len(n))
	}
	n = selectNodes(t, doc, "book[price > 80]/title")
	if len(n) != 2 {
		t.Fatalf("price>80 = %d", len(n))
	}
	n = selectNodes(t, doc, "book[author='Gray']")
	if len(n) != 1 || n[0].AttrValue("", "id") != "3" {
		t.Fatalf("author=Gray = %v", n)
	}
	// existence predicate
	n = selectNodes(t, doc, "book[price]")
	if len(n) != 3 {
		t.Fatalf("has price = %d", len(n))
	}
	// chained predicates
	n = selectNodes(t, doc, "book[@genre='db'][price < 100]")
	if len(n) != 1 || n[0].AttrValue("", "id") != "1" {
		t.Fatalf("chained = %v", n)
	}
}

func TestXPathBooleanOperators(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	n := selectNodes(t, doc, "book[@genre='grid' or price > 100]")
	if len(n) != 2 {
		t.Fatalf("or = %d", len(n))
	}
	n = selectNodes(t, doc, "book[@genre='db' and price < 100]")
	if len(n) != 1 {
		t.Fatalf("and = %d", len(n))
	}
	n = selectNodes(t, doc, "book[not(@genre='db')]")
	if len(n) != 1 {
		t.Fatalf("not = %d", len(n))
	}
}

func TestXPathUnion(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	n := selectNodes(t, doc, "book/title | book/author")
	if len(n) != 6 {
		t.Fatalf("union = %d", len(n))
	}
	// dedup
	n = selectNodes(t, doc, "book | book")
	if len(n) != 3 {
		t.Fatalf("self union = %d", len(n))
	}
}

func TestXPathFunctions(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	if v := evalValue(t, doc, "count(book)"); v.AsNumber() != 3 {
		t.Fatalf("count = %v", v)
	}
	if v := evalValue(t, doc, "sum(book/price)"); v.AsNumber() != 255 {
		t.Fatalf("sum = %v", v)
	}
	if v := evalValue(t, doc, "contains('hello world', 'wor')"); !v.AsBool() {
		t.Fatal("contains")
	}
	if v := evalValue(t, doc, "starts-with(editor, 'Pie')"); !v.AsBool() {
		t.Fatal("starts-with")
	}
	if v := evalValue(t, doc, "string-length('abcd')"); v.AsNumber() != 4 {
		t.Fatal("string-length")
	}
	if v := evalValue(t, doc, "concat('a', 'b', 'c')"); v.AsString() != "abc" {
		t.Fatal("concat")
	}
	if v := evalValue(t, doc, "substring('hello', 2, 3)"); v.AsString() != "ell" {
		t.Fatalf("substring = %q", v.AsString())
	}
	if v := evalValue(t, doc, "normalize-space('  a   b ')"); v.AsString() != "a b" {
		t.Fatalf("normalize-space = %q", v.AsString())
	}
	if v := evalValue(t, doc, "floor(2.7) + ceiling(2.1) + round(2.5)"); v.AsNumber() != 8 {
		t.Fatalf("math funcs = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "name(book)"); v.AsString() != "book" {
		t.Fatalf("name = %q", v.AsString())
	}
}

func TestXPathArithmetic(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	if v := evalValue(t, doc, "1 + 2 * 3"); v.AsNumber() != 7 {
		t.Fatalf("arith = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "10 div 4"); v.AsNumber() != 2.5 {
		t.Fatalf("div = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "10 mod 3"); v.AsNumber() != 1 {
		t.Fatalf("mod = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "-book[1]/price"); v.AsNumber() != -85 {
		t.Fatalf("negation = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "sum(book/price) div count(book)"); v.AsNumber() != 85 {
		t.Fatalf("avg = %v", v.AsNumber())
	}
	// Chains apply left to right, however long.
	for expr, want := range map[string]float64{
		"10 - 4 - 3":                       3,
		"100 div 10 div 5":                 2,
		"2 * 3 mod 4":                      2,
		"1" + strings.Repeat(" + 1", 5000): 5001,
	} {
		if v := evalValue(t, doc, expr); v.AsNumber() != want {
			t.Fatalf("%.20s = %v, want %v", expr, v.AsNumber(), want)
		}
	}
	if v := evalValue(t, doc, "3 > 2 > 1"); v.AsBool() {
		t.Fatal("3 > 2 > 1 is (true) > 1, which is false")
	}
}

func TestXPathComparisonSemantics(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	// node-set = scalar is existential
	if v := evalValue(t, doc, "book/price = 60"); !v.AsBool() {
		t.Fatal("existential = failed")
	}
	// != is also existential (some node differs)
	if v := evalValue(t, doc, "book/price != 60"); !v.AsBool() {
		t.Fatal("existential != failed")
	}
	if v := evalValue(t, doc, "book/price = 61"); v.AsBool() {
		t.Fatal("= should be false")
	}
	if v := evalValue(t, doc, "editor = 'Pierson'"); !v.AsBool() {
		t.Fatal("string compare failed")
	}
}

func TestXPathTypeConversions(t *testing.T) {
	v := stringValue("3.5")
	if v.AsNumber() != 3.5 {
		t.Fatal("string→number")
	}
	if !v.AsBool() {
		t.Fatal("nonempty string is true")
	}
	if stringValue("").AsBool() {
		t.Fatal("empty string is false")
	}
	if !math.IsNaN(stringValue("abc").AsNumber()) {
		t.Fatal("bad number should be NaN")
	}
	if numberValue(0).AsBool() {
		t.Fatal("0 is false")
	}
	if boolValue(true).AsNumber() != 1 {
		t.Fatal("true is 1")
	}
	if numberValue(4).AsString() != "4" {
		t.Fatal("integral number formats without decimal point")
	}
	if boolValue(false).AsString() != "false" {
		t.Fatal("boolean string")
	}
}

func TestXPathCompileErrors(t *testing.T) {
	bad := []string{
		"",
		"book[",
		"book[]",
		"foo(",
		"'unterminated",
		"book/",
		"following::x", // unsupported axis
		"book[@]",
		"1 +",
		"..book",
	}
	for _, expr := range bad {
		if _, err := CompileXPath(expr); err == nil {
			t.Errorf("CompileXPath(%q): expected error", expr)
		}
	}
	// Nesting past maxExprDepth is an error, not an exhausted stack.
	for name, expr := range map[string]string{
		"parentheses": "/a[" + strings.Repeat("(", 3_000_000) + "1" + strings.Repeat(")", 3_000_000) + "]",
		"predicates":  strings.Repeat("a[", maxExprDepth+1) + "1" + strings.Repeat("]", maxExprDepth+1),
		"minus":       strings.Repeat("- ", maxExprDepth+1) + "1",
	} {
		if _, err := CompileXPath(expr); !errors.Is(err, errTooDeep) {
			t.Errorf("%s: err = %.80v, want %v", name, err, errTooDeep)
		}
	}
}

func TestXPathNamespacePrefixIgnored(t *testing.T) {
	doc := parseDoc(t, `<r xmlns:p="urn:p"><p:x>1</p:x><x>2</x></r>`)
	// local-name matching: both elements match "x"
	if n := selectNodes(t, doc, "x"); len(n) != 2 {
		t.Fatalf("x = %d", len(n))
	}
	if n := selectNodes(t, doc, "p:x"); len(n) != 2 {
		t.Fatalf("p:x (prefix ignored) = %d", len(n))
	}
}

func TestXPathTextTest(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	n := selectNodes(t, doc, "book[1]/title/text()")
	if len(n) != 1 || n[0].Text() != "Principles of Distributed Database Systems" {
		t.Fatalf("text() = %v", n)
	}
}

func TestXPathFunctionPathContinuation(t *testing.T) {
	doc := parseDoc(t, catalogDoc)
	// parenthesised expression followed by a path
	n := selectNodes(t, doc, "(book | editor)/..")
	if len(n) != 1 || n[0].Name.Local != "catalog" {
		t.Fatalf("continuation = %v", n)
	}
}

func TestXPathStringFunc(t *testing.T) {
	doc := parseDoc(t, `<a><b>42</b></a>`)
	if v := evalValue(t, doc, "string(b)"); v.AsString() != "42" {
		t.Fatalf("string(b) = %q", v.AsString())
	}
	if v := evalValue(t, doc, "number(b) * 2"); v.AsNumber() != 84 {
		t.Fatalf("number = %v", v.AsNumber())
	}
	if v := evalValue(t, doc, "boolean(b)"); !v.AsBool() {
		t.Fatal("boolean(nodeset)")
	}
	if v := evalValue(t, doc, "boolean(missing)"); v.AsBool() {
		t.Fatal("boolean(empty nodeset)")
	}
}

func TestXPathExtendedAxes(t *testing.T) {
	doc := parseDoc(t, `<r><a><b1/><b2><c/></b2><b3/></a></r>`)
	c := selectNodes(t, doc, "//c")[0]

	anc, err := CompileXPath("ancestor::*")
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := anc.Select(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[0].Name.Local != "b2" || nodes[2].Name.Local != "r" {
		t.Fatalf("ancestors = %v", names(nodes))
	}

	aos, _ := CompileXPath("ancestor-or-self::*")
	nodes, _ = aos.Select(c)
	if len(nodes) != 4 || nodes[0].Name.Local != "c" {
		t.Fatalf("ancestor-or-self = %v", names(nodes))
	}

	// Sibling axes from b2.
	n := selectNodes(t, doc, "//b2")[0]
	fs, _ := CompileXPath("following-sibling::*")
	nodes, _ = fs.Select(n)
	if len(nodes) != 1 || nodes[0].Name.Local != "b3" {
		t.Fatalf("following = %v", names(nodes))
	}
	ps, _ := CompileXPath("preceding-sibling::*")
	nodes, _ = ps.Select(n)
	if len(nodes) != 1 || nodes[0].Name.Local != "b1" {
		t.Fatalf("preceding = %v", names(nodes))
	}

	// Within a full path with predicates.
	got := selectNodes(t, doc, "//c/ancestor::a/b1/following-sibling::b2")
	if len(got) != 1 {
		t.Fatalf("composed = %v", names(got))
	}
}

func names(nodes []*xmlutil.Element) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.Name.Local
	}
	return out
}

// TestXPathRecommendationNumbers: the XPath 1.0 Recommendation's rules
// for string() of a number (§4.2) and for round() (§4.4). Every case in
// defects answered otherwise before they were fixed: an integral number
// went through int64, a small one took an exponent, the infinities were
// Go's spelling, and round() took a tie away from zero. held are the
// rules the implementation already kept, pinned beside them. A −0 shows
// as the sign of an infinity it divides.
func TestXPathRecommendationNumbers(t *testing.T) {
	doc := parseDoc(t, `<a/>`)
	defects := []struct{ expr, want string }{
		{"string(123456789012345678901)", "123456789012345680000"},
		{"string(-123456789012345678901)", "-123456789012345680000"},
		{"string(0.000001)", "0.000001"},
		{"string(1 div 0)", "Infinity"},
		{"string(-1 div 0)", "-Infinity"},
		{"string(1 div round(-0.5))", "-Infinity"},
		{"string(1 div round(-0.25))", "-Infinity"},
		{"string(round(-2.5))", "-2"},
		{"string(round(-1.5))", "-1"},
		{"substring('12345', -0.5, 3)", "12"},
		{"string(1 div -0)", "-Infinity"},
		{"string(round(1 div 0))", "Infinity"},
	}
	held := []struct{ expr, want string }{
		{"string(0 div 0)", "NaN"},
		{"string(-0)", "0"},
		{"string(round(0.49999999999999994))", "0"},
		{"string(round(2.5))", "3"},
		{"string(round(-2.6))", "-3"},
		{"string(round(0 div 0))", "NaN"},
		{"string(1.5)", "1.5"},
		{"string(-42)", "-42"},
		{"substring('12345', 1.5, 2.6)", "234"},
		{"substring('12345', 0, 3)", "12"},
	}
	for _, c := range append(defects, held...) {
		if got := evalValue(t, doc, c.expr).AsString(); got != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got, c.want)
		}
	}
}
