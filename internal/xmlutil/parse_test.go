package xmlutil

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// parseReference is the previous encoding/xml-based implementation of
// Parse, kept here as the behavioural oracle for the byte parser.
func parseReference(r io.Reader) (*Element, error) {
	dec := xml.NewDecoder(r)
	var root *Element
	var cur *Element
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmlutil: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !validLocalName(t.Name.Local) {
				return nil, fmt.Errorf("xmlutil: parse: invalid element name %q", t.Name.Local)
			}
			el := NewElement(t.Name.Space, t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue
				}
				if !validLocalName(a.Name.Local) {
					return nil, fmt.Errorf("xmlutil: parse: invalid attribute name %q", a.Name.Local)
				}
				el.Attrs = append(el.Attrs, Attr{
					Name:  Name{Space: a.Name.Space, Local: a.Name.Local},
					Value: a.Value,
				})
			}
			if cur == nil {
				if root != nil {
					return nil, errors.New("xmlutil: multiple root elements")
				}
				root = el
			} else {
				cur.AppendChild(el)
			}
			cur = el
		case xml.EndElement:
			if cur == nil {
				return nil, errors.New("xmlutil: unbalanced end element")
			}
			trimWhitespaceBetweenElements(cur)
			cur = cur.parent
		case xml.CharData:
			if cur != nil {
				cur.Children = append(cur.Children, Text(string(t)))
			}
		}
	}
	if root == nil {
		return nil, errors.New("xmlutil: empty document")
	}
	if cur != nil {
		return nil, errors.New("xmlutil: unexpected EOF inside element")
	}
	return root, nil
}

// TestParseMatchesReference pins the byte parser to the encoding/xml
// semantics it replaced: same trees on valid documents, rejection on
// the same invalid ones.
func TestParseMatchesReference(t *testing.T) {
	docs := []string{
		// plain structure
		`<a><b>hi</b><c/></a>`,
		`<a xmlns="urn:x"><b attr="1">hi</b><c/></a>`,
		// prefixes, scoping, shadowing, attribute namespaces
		`<p:a xmlns:p="urn:p" xmlns:q="urn:q"><q:b p:x="v">t</q:b></p:a>`,
		`<a xmlns="u1"><b xmlns="u2"><c/></b><d/></a>`,
		`<a xmlns:p="u1"><p:b xmlns:p="u2"><p:c/></p:b><p:d/></a>`,
		// undeclared prefix preserved verbatim
		`<x:a><x:b y:attr="v"/></x:a>`,
		// xml: prefix and single quotes
		`<a xml:lang="en" b='single'/>`,
		// entities and character references
		`<a>one &amp; two &lt;three&gt; &#65;&#x42; &apos;&quot;</a>`,
		`<a v="x&amp;y&#10;z"/>`,
		// CDATA
		`<a><![CDATA[raw <not> &amp; markup]]></a>`,
		`<a>pre<![CDATA[mid]]>post</a>`,
		// newline normalisation in text and attributes
		"<a>one\r\ntwo\rthree</a>",
		"<a v=\"one\r\ntwo\rthree\"/>",
		// whitespace trimming between elements
		"<a>\n  <b>keep me</b>\n  <c> x </c>\n</a>",
		// mixed content
		`<a>mixed <b>inner</b> tail</a>`,
		// comments, PIs, doctype, XML declaration
		`<?xml version="1.0" encoding="UTF-8"?><a><!-- note --><b/></a>`,
		`<!DOCTYPE a><a><?pi target?>t</a>`,
		// deep SOAP-ish document
		`<soap:Envelope xmlns:soap="http://www.w3.org/2003/05/soap-envelope">` +
			`<soap:Header><m:id xmlns:m="urn:m">7</m:id></soap:Header>` +
			`<soap:Body><m:op xmlns:m="urn:m"><m:row a="1">v1</m:row><m:row a="2">v2</m:row></m:op></soap:Body>` +
			`</soap:Envelope>`,
		// empty attribute value, unicode text
		`<a v="">héllo — 世界</a>`,
		// self-closing root with namespace on itself
		`<a xmlns="only:me"/>`,
	}
	for _, d := range docs {
		got, gotErr := ParseBytes([]byte(d))
		want, wantErr := parseReference(strings.NewReader(d))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("parse %q: err = %v, reference err = %v", d, gotErr, wantErr)
			continue
		}
		if gotErr != nil {
			continue
		}
		if !Equal(got, want) {
			t.Errorf("parse %q:\n got %s\nwant %s", d, MarshalString(got), MarshalString(want))
		}
		// Exact infoset check beyond Equal's normalisation: the
		// re-serialisations must agree byte for byte.
		if g, w := MarshalString(got), MarshalString(want); g != w {
			t.Errorf("marshal mismatch for %q:\n got %s\nwant %s", d, g, w)
		}
	}
}

// TestParseRejects lists documents both parsers must refuse.
func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"not xml",
		"<a>",
		"<a></b>",
		"<a/><b/>",
		"<a attr></a>",
		`<a attr=novalue/>`,
		`<a v="unterminated></a>`,
		"<a>&unknown;</a>",
		"<a>&#xZZ;</a>",
		"<a>&#0;</a>",
		"<a><b></a></b>",
		"<a",
		"</a>",
		`<a v="<"/>`,
		"<a><![CDATA[unterminated</a>",
		"<!-- only a comment -->",
	}
	for _, d := range bad {
		if _, err := ParseBytes([]byte(d)); err == nil {
			t.Errorf("ParseBytes(%q): expected error", d)
		}
		if _, err := parseReference(strings.NewReader(d)); err == nil {
			t.Errorf("reference accepts %q — oracle drifted", d)
		}
	}
}

// TestParseInvalidNames mirrors the old name validation: local parts
// must be standalone XML names so re-marshalling stays parseable.
func TestParseInvalidNames(t *testing.T) {
	for _, d := range []string{`<x:0 xmlns:x="u"/>`, `<a x:0="v" xmlns:x="u"/>`} {
		if _, err := ParseBytes([]byte(d)); err == nil {
			t.Errorf("ParseBytes(%q): expected invalid-name error", d)
		}
	}
}

// TestRawNode exercises the verbatim-fragment child kind.
func TestRawNode(t *testing.T) {
	inner := NewElement("urn:in", "rows")
	inner.AddText("urn:in", "row", "a & b")
	fragment := Marshal(inner)

	wrap := NewElement("urn:out", "Dataset")
	wrap.SetAttr("", "formatURI", "urn:fmt")
	wrap.Children = append(wrap.Children, Raw(fragment))

	reparsed, err := ParseBytes(Marshal(wrap))
	if err != nil {
		t.Fatalf("marshal with Raw produced unparseable bytes: %v", err)
	}
	rows := reparsed.Find("urn:in", "rows")
	if rows == nil {
		t.Fatalf("embedded fragment lost: %s", Marshal(wrap))
	}
	if got := rows.FindText("urn:in", "row"); got != "a & b" {
		t.Fatalf("embedded text = %q", got)
	}
	// Clone and Equal treat Raw as opaque bytes.
	if !Equal(wrap, wrap.Clone()) {
		t.Fatal("clone with Raw not Equal")
	}
}

func BenchmarkParseBytes(b *testing.B) {
	root := NewElement("urn:b", "rows")
	for i := 0; i < 100; i++ {
		r := root.Add("urn:b", "row")
		r.AddText("urn:b", "id", "42")
		r.AddText("urn:b", "name", "benchmark row value")
	}
	doc := Marshal(root)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBytes(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTokenizer walks one document through the pull API: resolved
// names, attributes without namespace declarations, decoded text, an
// end token for every start (empty-element tags included), Skip and
// PeekEnd.
func TestTokenizer(t *testing.T) {
	const doc = `<?xml version="1.0"?>lead<r:root xmlns:r="urn:r" xmlns="urn:d" r:a="1" b="x&amp;y">` +
		`<item>one &lt; two<![CDATA[<3>]]></item><r:empty c='v'/>` +
		`<skipped><deep>text</deep><deep/></skipped>tail</r:root>trail`
	var tok Tokenizer
	tok.Reset([]byte(doc))
	var got []string
	for {
		kind, err := tok.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch kind {
		case TokenStart:
			s := "start " + tok.Name().String()
			for _, a := range tok.Attrs() {
				s += fmt.Sprintf(" %s=%q", a.Name, a.Value)
			}
			if tok.Name().Local == "skipped" {
				if err := tok.Skip(); err != nil {
					t.Fatal(err)
				}
				s += " (skipped)"
			}
			got = append(got, s)
		case TokenText:
			s := fmt.Sprintf("text %q", tok.Text())
			if tok.PeekEnd() {
				s += " then end"
			}
			got = append(got, s)
		case TokenEnd:
			got = append(got, "end")
		}
		if kind == TokenEOF {
			break
		}
	}
	want := []string{
		`start {urn:r}root {urn:r}a="1" b="x&y"`,
		`start {urn:d}item`, `text "one < two"`, `text "<3>" then end`, `end`,
		`start {urn:r}empty c="v"`, `end`,
		`start {urn:d}skipped (skipped)`,
		`text "tail" then end`, `end`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("tokens:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	tok.Reset([]byte(`<a><b c="1"/></a>`))
	tok.Next()
	tok.Next()
	if v, ok := tok.Attr("", "c"); !ok || string(v) != "1" {
		t.Fatalf(`Attr("", "c") = %q, %v`, v, ok)
	}
	if _, ok := tok.Attr("urn:x", "c"); ok {
		t.Fatal("Attr matched across namespaces")
	}
	if !tok.PeekEnd() {
		t.Fatal("PeekEnd false before an empty-element tag's end token")
	}

	tok.Reset([]byte(`<a>&nope;</a>`))
	tok.Next()
	if _, err := tok.Next(); err == nil || !strings.HasPrefix(err.Error(), "xmlutil: parse: ") {
		t.Fatalf("bad entity: err = %v", err)
	}
}

// TestTokenizerRepeatedNames: the name cache and the by-depth guess
// must never outlive the namespace bindings they were made under, nor
// take a longer name for the shorter one it starts with.
func TestTokenizerRepeatedNames(t *testing.T) {
	docs := []string{
		`<a xmlns:p="u1"><p:x/><p:x/><b xmlns:p="u2"><p:x/><p:x/></b><p:x/><p:x xmlns:p="u3"/><p:x/></a>`,
		`<a><x/><xy/><x/><xy>t</xy><x></x><x a="1"/><x	/></a>`,
		`<a xmlns="d1"><x/><x xmlns="d2"><x/></x><x/><x xmlns=""/></a>`,
		`<r><row><v>1</v><v>2</v></row><row><v>3</v><w>4</w></row><rows><v/></rows></r>`,
	}
	for _, d := range docs {
		got, err := ParseBytes([]byte(d))
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		want, err := parseReference(strings.NewReader(d))
		if err != nil {
			t.Fatalf("%s: reference: %v", d, err)
		}
		if g, w := MarshalString(got), MarshalString(want); g != w {
			t.Errorf("%s:\n got %s\nwant %s", d, g, w)
		}
	}
}

// TestParseBytesVerbatim pins when a verbatim element keeps its content
// as one Raw span — exactly the bytes of a standalone child element —
// and when it is built as a subtree like any other.
func TestParseBytesVerbatim(t *testing.T) {
	keep := []Name{{Space: "urn:d", Local: "Dataset"}}
	const open, shut = `<e:Env xmlns:e="urn:e" xmlns:d="urn:d" xmlns:o="urn:o" xmlns="urn:def"><d:Dataset f="1">`, `</d:Dataset><d:After/></e:Env>`
	cases := []struct {
		content string
		raw     string // "" = subtree
	}{
		{`<r:rows xmlns:r="urn:r"><r:row a="1">x &amp; y</r:row><!-- c --><r:row/></r:rows>`, `<r:rows xmlns:r="urn:r"><r:row a="1">x &amp; y</r:row><!-- c --><r:row/></r:rows>`},
		{"\r\n  <rows xmlns=\"\"><row>1</row></rows>\n", `<rows xmlns="">` + `<row>1</row></rows>`},
		{`<!-- before --><r:one xmlns:r="urn:r"/><?pi after?>`, `<r:one xmlns:r="urn:r"/>`},
		{`<rows xmlns="urn:own" xml:lang="en" undeclared:a="v"><row/></rows>`, `<rows xmlns="urn:own" xml:lang="en" undeclared:a="v"><row/></rows>`},
		// a nested Dataset is just part of the span
		{`<r:x xmlns:r="urn:r" xmlns:d="urn:d"><d:Dataset><r:y/></d:Dataset></r:x>`, `<r:x xmlns:r="urn:r" xmlns:d="urn:d"><d:Dataset><r:y/></d:Dataset></r:x>`},
		// redeclaring an outer prefix inside makes its use inside standalone
		{`<o:x xmlns:o="urn:mine"><o:y/></o:x>`, `<o:x xmlns:o="urn:mine"><o:y/></o:x>`},

		{`<o:rows><o:row/></o:rows>`, ""},                         // element prefix bound outside
		{`<r:rows xmlns:r="urn:r"><r:row o:a="1"/></r:rows>`, ""}, // attribute prefix bound outside
		{`<rows><row/></rows>`, ""},                               // outer default namespace
		{`<r:rows xmlns:r="urn:r"><inner/></r:rows>`, ""},         // ... deeper down
		{`<o:x><o:y xmlns:o="urn:late"/></o:x>`, ""},              // used before the inner declaration
		{`<r:a xmlns:r="urn:r"/><r:b xmlns:r="urn:r"/>`, ""},      // two elements
		{`id,name` + "\n" + `1,a`, ""},                            // text
		{`x<r:a xmlns:r="urn:r"/>`, ""},                           // text beside the element
		{`<![CDATA[ ]]><r:a xmlns:r="urn:r"/>`, `<r:a xmlns:r="urn:r"/>`},
		{``, ""},
	}
	for _, c := range cases {
		doc := open + c.content + shut
		got, err := ParseBytesVerbatim([]byte(doc), keep)
		if err != nil {
			t.Fatalf("%s: %v", c.content, err)
		}
		ds := got.Find("urn:d", "Dataset")
		if ds == nil || ds.AttrValue("", "f") != "1" || got.Find("urn:d", "After") == nil {
			t.Fatalf("%s: surrounding tree damaged: %s", c.content, Marshal(got))
		}
		var raw string
		if len(ds.Children) == 1 {
			if r, ok := ds.Children[0].(Raw); ok {
				raw = string(r)
			}
		}
		if raw != c.raw {
			t.Errorf("%s:\n kept %q\n want %q", c.content, raw, c.raw)
		}
		// Either way the document means what a plain parse says it means.
		plain, err := ParseBytes([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseBytes(Marshal(got))
		if err != nil {
			t.Fatalf("%s: re-marshalled document does not parse: %v\n%s", c.content, err, Marshal(got))
		}
		if !Equal(again, plain) {
			t.Errorf("%s: meaning changed:\n got %s\nwant %s", c.content, Marshal(again), Marshal(plain))
		}
	}

	// A malformed fragment fails the parse whether or not it would have
	// been kept, and an empty-element Dataset has nothing to keep.
	for _, bad := range []string{`<r:a xmlns:r="urn:r">&bogus;</r:a>`, `<r:a xmlns:r="urn:r"></r:b>`, `<r:a xmlns:r="urn:r">`} {
		if _, err := ParseBytesVerbatim([]byte(open+bad+shut), keep); err == nil {
			t.Errorf("%s: expected an error", bad)
		}
	}
	root, err := ParseBytesVerbatim([]byte(`<d:Dataset xmlns:d="urn:d"/>`), keep)
	if err != nil || len(root.Children) != 0 {
		t.Fatalf("empty Dataset: %v, %d children", err, len(root.Children))
	}
	// The span is a copy: it must survive its source buffer.
	buf := []byte(open + `<r:one xmlns:r="urn:r">v</r:one>` + shut)
	root, err = ParseBytesVerbatim(buf, keep)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = '#'
	}
	if raw := root.Find("urn:d", "Dataset").Children[0].(Raw); raw != `<r:one xmlns:r="urn:r">v</r:one>` {
		t.Fatalf("Raw aliases the parse buffer: %q", raw)
	}
}
