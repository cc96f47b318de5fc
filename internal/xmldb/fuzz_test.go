package xmldb

import (
	"testing"

	"dais/internal/xmlutil"
)

// fuzzStore holds two documents in the root collection.
func fuzzStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore("fuzz")
	for name, doc := range map[string]string{
		"a.xml": `<library><book id="1" lang="en"><title>Alpha</title><price>10.5</price><tag>x</tag><tag>y</tag></book><book id="2"><title>Beta</title><price>-3</price></book>text</library>`,
		"b.xml": `<library xmlns:p="urn:p"><p:book id="3"><title>Gamma</title><price>NaN</price></p:book><shelf/></library>`,
	} {
		e, err := xmlutil.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddDocument("", name, e); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// FuzzXPath: any expression either fails to compile or evaluates — over
// one document, and across the store as a plain query and as the path
// of a for clause — to a value or an error, never a panic.
func FuzzXPath(f *testing.F) {
	for _, seed := range []string{
		`round()`, `floor()`, `ceiling()`, `round(1, 2)`, `floor(//price)`, `ceiling(-0.5)`,
		`//book[price > 5]/title`, `/library/book[@id = "2"]`, `count(//tag)`, `sum(//price)`,
		`substring("abc", 2)`, `concat(name(), local-name(/*), string())`, `string-length()`,
		`normalize-space("  a  b ")`, `//book[position() = last()]`, `not(boolean(//shelf))`,
		`//*[contains(., "a")] | //title`, `-(1 div 0) mod 3`, `//book[starts-with(title, "B")]/@id`,
		`for $b in //book where $b/price > 1 order by $b/title descending return <r>{$b/title}</r>`,
		`for $b in //book let $t := $b/title return <r id="{$b/@id}">{$t}</r>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		s := fuzzStore(t)
		if xp, err := CompileXPath(expr); err == nil {
			doc, err := s.GetDocument("", "a.xml")
			if err != nil {
				t.Fatal(err)
			}
			_, _ = xp.Eval(doc)
		}
		_, _ = s.XQueryExecute("", expr)
		_, _ = s.XQueryExecute("", "for $v in "+expr+" return <r>{$v}</r>")
	})
}

// FuzzXUpdate: any modifications element either applies or fails, never
// panics, and a failing one leaves the stored document as it was.
func FuzzXUpdate(f *testing.F) {
	const x = `xmlns:xupdate="` + NSXUpdate + `"`
	for _, seed := range []string{
		`<xupdate:modifications ` + x + `><xupdate:update select="//book[1]/price">7</xupdate:update></xupdate:modifications>`,
		`<xupdate:modifications ` + x + `><xupdate:insert-after select="//book[@id='1']"><xupdate:element name="book"><xupdate:attribute name="id">9</xupdate:attribute><title>New</title></xupdate:element></xupdate:insert-after></xupdate:modifications>`,
		`<xupdate:modifications ` + x + `><xupdate:append select="/library"><shelf/></xupdate:append><xupdate:remove select="//tag"/></xupdate:modifications>`,
		`<xupdate:modifications ` + x + `><xupdate:rename select="//title">name</xupdate:rename><xupdate:remove select="/library"/></xupdate:modifications>`,
		`<xupdate:modifications ` + x + `><xupdate:insert-before select="/"><a/></xupdate:insert-before></xupdate:modifications>`,
		`<xupdate:modifications ` + x + `><xupdate:update select="round()">1</xupdate:update><xupdate:remove select="floor()"/><xupdate:append select="ceiling()"><a/></xupdate:append></xupdate:modifications>`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, mods string) {
		el, err := xmlutil.ParseString(mods)
		if err != nil {
			return
		}
		s := fuzzStore(t)
		before, err := s.GetDocument("", "a.xml")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.XUpdate("", "a.xml", el); err == nil {
			return
		}
		after, err := s.GetDocument("", "a.xml")
		if err != nil {
			t.Fatal(err)
		}
		if a, b := xmlutil.MarshalString(before), xmlutil.MarshalString(after); a != b {
			t.Fatalf("failed XUpdate changed the document:\n%s\n%s", a, b)
		}
	})
}
