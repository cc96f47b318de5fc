// Package xmlutil provides a small namespace-aware XML element tree.
//
// The Go standard library's encoding/xml package offers struct-based
// marshalling and a streaming tokenizer, but no document object model.
// SOAP processing, WSRF property documents and the WS-DAIX document
// store all need to hold, inspect and re-serialise arbitrary XML whose
// shape is not known at compile time, so this package builds a minimal
// infoset on top of the encoding/xml tokenizer: elements with qualified
// names, attributes, character data and child elements.
package xmlutil

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"unsafe"
)

// Name is a qualified XML name: a namespace URI plus a local part.
type Name struct {
	Space string // namespace URI, "" for no namespace
	Local string // local name
}

// String renders the name in Clark notation ({uri}local) for debugging.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// Matches reports whether the name is local in the given namespace;
// an empty space matches any namespace (the rule of Find and FindAll).
func (n Name) Matches(space, local string) bool {
	return n.Local == local && (space == "" || n.Space == space)
}

// Attr is a single attribute. Namespace declarations are not stored as
// attributes; prefixes are re-synthesised at serialisation time.
type Attr struct {
	Name  Name
	Value string
}

// Element is a node in the tree. Children preserves document order and
// may interleave *Element and Text nodes.
type Element struct {
	Name     Name
	Attrs    []Attr
	Children []Node
	parent   *Element
}

// Node is implemented by the child node kinds: *Element, Text, Raw and
// Lazy.
type Node interface{ isNode() }

// Text is a character-data child node.
type Text string

// Raw is a pre-serialised XML fragment written verbatim by Marshal.
// It lets a producer embed bytes it already rendered (a rowset payload,
// say) without re-parsing them into a tree. The fragment must be a
// well-formed standalone element with its own namespace declarations —
// exactly what Marshal emits — so the surrounding document stays valid.
// Parsing produces Raw nodes only where ParseBytesVerbatim is asked to;
// such a node is a copy that owns its bytes and never aliases the buffer
// the document was read into.
//
// A Raw's bytes change hands without being copied: RawBytes takes over a
// producer's rendering, Bytes lends it to a decoder. What makes that
// sound is that nobody writes them afterwards — the producer is done
// with the slice when it hands it over, and a consumer only reads.
type Raw string

// RawBytes returns b as a Raw without copying it. The caller gives b
// up: it must not write to it again.
func RawBytes(b []byte) Raw { return Raw(unsafe.String(unsafe.SliceData(b), len(b))) }

// Bytes returns the fragment's bytes without copying them. They are
// read-only: the Raw may be shared, or a constant.
func (r Raw) Bytes() []byte { return unsafe.Slice(unsafe.StringData(string(r)), len(r)) }

// Lazy is a Raw that does not exist yet: the function appends the
// fragment to dst when the tree is serialised, and it goes straight into
// the document's own buffer — a producer that can render on demand (a
// rowset window from its pages) never holds the rendering in memory of
// its own. The fragment is under Raw's contract, the function must
// append the same bytes every time it is called, and it cannot fail:
// whatever could go wrong is found out before the node is built.
type Lazy func(dst []byte) []byte

func (Text) isNode()     {}
func (Raw) isNode()      {}
func (Lazy) isNode()     {}
func (*Element) isNode() {}

// NewElement returns an element with the given namespace and local name.
func NewElement(space, local string) *Element {
	return &Element{Name: Name{Space: space, Local: local}}
}

// Parent returns the element's parent, or nil for a root element.
func (e *Element) Parent() *Element { return e.parent }

// AppendChild adds a child element and sets its parent pointer.
func (e *Element) AppendChild(c *Element) *Element {
	c.parent = e
	e.Children = append(e.Children, c)
	return c
}

// InsertChildAt inserts a child element at the given position among
// Children (clamped to the valid range) and sets its parent pointer.
func (e *Element) InsertChildAt(i int, c *Element) {
	if i < 0 {
		i = 0
	}
	if i > len(e.Children) {
		i = len(e.Children)
	}
	c.parent = e
	e.Children = append(e.Children, nil)
	copy(e.Children[i+1:], e.Children[i:])
	e.Children[i] = c
}

// Add creates a child element with the given name, appends it and
// returns it, enabling fluent document construction.
func (e *Element) Add(space, local string) *Element {
	return e.AppendChild(NewElement(space, local))
}

// AddText creates a child element containing only the given text.
func (e *Element) AddText(space, local, text string) *Element {
	c := e.Add(space, local)
	c.SetText(text)
	return c
}

// SetText replaces the element's children with a single text node.
func (e *Element) SetText(s string) *Element {
	e.Children = []Node{Text(s)}
	return e
}

// SetAttr sets (or replaces) an attribute value.
func (e *Element) SetAttr(space, local, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name.Space == space && e.Attrs[i].Name.Local == local {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: Name{Space: space, Local: local}, Value: value})
	return e
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Element) Attr(space, local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the attribute value or "" if absent.
func (e *Element) AttrValue(space, local string) string {
	v, _ := e.Attr(space, local)
	return v
}

// Text returns the concatenation of all descendant character data, in
// document order (the XPath string-value of the element).
func (e *Element) Text() string {
	// The overwhelmingly common shape — one text child — costs nothing.
	if len(e.Children) == 1 {
		if t, ok := e.Children[0].(Text); ok {
			return string(t)
		}
	}
	var b strings.Builder
	e.writeText(&b)
	return b.String()
}

func (e *Element) writeText(b *strings.Builder) {
	for _, c := range e.Children {
		switch n := c.(type) {
		case Text:
			b.WriteString(string(n))
		case *Element:
			n.writeText(b)
		}
	}
}

// ChildElements returns the element children in document order.
func (e *Element) ChildElements() []*Element {
	n := 0
	for _, c := range e.Children {
		if _, ok := c.(*Element); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]*Element, 0, n) // counted first: one allocation, not a doubling series
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok {
			out = append(out, el)
		}
	}
	return out
}

// Find returns the first child element with the given name, or nil.
func (e *Element) Find(space, local string) *Element {
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name.Matches(space, local) {
			return el
		}
	}
	return nil
}

// FindAll returns every child element with the given name.
func (e *Element) FindAll(space, local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if el, ok := c.(*Element); ok && el.Name.Matches(space, local) {
			out = append(out, el)
		}
	}
	return out
}

// FindText returns the string-value of the first matching child, or "".
func (e *Element) FindText(space, local string) string {
	if c := e.Find(space, local); c != nil {
		return c.Text()
	}
	return ""
}

// Path walks a chain of child names ({space,local} pairs are given as a
// single namespace applied to each step) and returns the terminal
// element, or nil if any step is missing.
func (e *Element) Path(space string, locals ...string) *Element {
	cur := e
	for _, l := range locals {
		cur = cur.Find(space, l)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// RemoveChild removes the first occurrence of the given child element.
func (e *Element) RemoveChild(c *Element) bool {
	for i, n := range e.Children {
		if n == Node(c) {
			e.Children = append(e.Children[:i], e.Children[i+1:]...)
			c.parent = nil
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the element with a nil parent.
func (e *Element) Clone() *Element {
	cp := &Element{Name: e.Name}
	cp.Attrs = append([]Attr(nil), e.Attrs...)
	for _, c := range e.Children {
		switch n := c.(type) {
		case Text, Raw, Lazy:
			cp.Children = append(cp.Children, n)
		case *Element:
			child := n.Clone()
			child.parent = cp
			cp.Children = append(cp.Children, child)
		}
	}
	return cp
}

// Parse reads a complete XML document from r and returns its root
// element. Comments and processing instructions are discarded;
// character data consisting solely of whitespace between elements is
// kept only inside elements that contain no child elements, matching
// the data-oriented documents DAIS deals in.
func Parse(r io.Reader) (*Element, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlutil: parse: %w", err)
	}
	return ParseBytes(data)
}

// ParseString is Parse over a string.
func ParseString(s string) (*Element, error) {
	return ParseBytes([]byte(s))
}

// validLocalName reports whether s is a well-formed XML name with no
// colon — the shape a local part must have to be written standalone by
// the encoder. The character classes follow the XML 1.0 Name
// production (ASCII plus the common Unicode letter ranges; stricter
// than encoding/xml's qualified-name check on purpose).
func validLocalName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if i == 0 {
			if !isNameStart(r) {
				return false
			}
			continue
		}
		if !isNameChar(r) {
			return false
		}
	}
	return true
}

func isNameStart(r rune) bool {
	switch {
	case r == '_',
		'A' <= r && r <= 'Z', 'a' <= r && r <= 'z',
		0xC0 <= r && r <= 0xD6, 0xD8 <= r && r <= 0xF6, 0xF8 <= r && r <= 0x2FF,
		0x370 <= r && r <= 0x37D, 0x37F <= r && r <= 0x1FFF,
		0x200C <= r && r <= 0x200D, 0x2070 <= r && r <= 0x218F,
		0x2C00 <= r && r <= 0x2FEF, 0x3001 <= r && r <= 0xD7FF,
		0xF900 <= r && r <= 0xFDCF, 0xFDF0 <= r && r <= 0xFFFD,
		0x10000 <= r && r <= 0xEFFFF:
		return true
	}
	return false
}

func isNameChar(r rune) bool {
	switch {
	case isNameStart(r),
		r == '-', r == '.', '0' <= r && r <= '9',
		r == 0xB7, 0x300 <= r && r <= 0x36F, 0x203F <= r && r <= 0x2040:
		return true
	}
	return false
}

// trimWhitespaceBetweenElements drops whitespace-only text nodes from
// elements that have at least one element child (formatting noise).
func trimWhitespaceBetweenElements(e *Element) {
	hasElem := false
	for _, c := range e.Children {
		if _, ok := c.(*Element); ok {
			hasElem = true
			break
		}
	}
	if !hasElem {
		return
	}
	out := e.Children[:0]
	for _, c := range e.Children {
		if t, ok := c.(Text); ok && strings.TrimSpace(string(t)) == "" {
			continue
		}
		out = append(out, c)
	}
	e.Children = out
}

// namespace prefix assignment for serialisation.
type nsContext struct {
	prefixes map[string]string // uri -> prefix
	next     int
}

func (c *nsContext) prefix(uri string) string {
	if uri == "" {
		return ""
	}
	if p, ok := c.prefixes[uri]; ok {
		return p
	}
	p := fmt.Sprintf("ns%d", c.next)
	c.next++
	c.prefixes[uri] = p
	return p
}

// encWriter is the streaming serialisation target: bytes.Buffer,
// strings.Builder and bufio.Writer all satisfy it without an adapter
// allocation. Write errors surface on the underlying writer (buffer
// writers never fail; bufio defers to Flush).
type encWriter interface {
	io.Writer
	WriteString(string) (int, error)
	WriteByte(byte) error
}

// Marshal serialises the element as a standalone XML fragment. Every
// namespace in the subtree is declared on the root element with a
// generated prefix, which keeps the output deterministic and avoids
// re-declaration churn in deep trees.
func Marshal(e *Element) []byte {
	var b bytes.Buffer
	encodeTree(&b, e)
	return b.Bytes()
}

// EncodeTo streams the element into w, producing exactly the bytes
// Marshal returns but without materialising an intermediate copy. When
// w already satisfies the buffer-writer methods (bytes.Buffer,
// strings.Builder, bufio.Writer) it is written to directly; otherwise
// the output is staged through a bufio.Writer.
func EncodeTo(w io.Writer, e *Element) error {
	if ew, ok := w.(encWriter); ok {
		encodeTree(ew, e)
		return nil
	}
	bw := bufio.NewWriter(w)
	encodeTree(bw, e)
	return bw.Flush()
}

// encodeTree assigns namespace prefixes and streams the subtree.
func encodeTree(b encWriter, e *Element) {
	ctx := &nsContext{prefixes: map[string]string{}}
	collectNamespaces(e, ctx)
	writeElement(b, e, ctx, true)
}

// MarshalString is Marshal returning a string.
func MarshalString(e *Element) string {
	var b strings.Builder
	encodeTree(&b, e)
	return b.String()
}

// MarshalIndent serialises with two-space indentation for human output.
func MarshalIndent(e *Element) []byte {
	raw := Marshal(e)
	parsed, err := ParseBytes(raw)
	if err != nil {
		return raw
	}
	var b bytes.Buffer
	ctx := &nsContext{prefixes: map[string]string{}}
	collectNamespaces(parsed, ctx)
	writeIndented(&b, parsed, ctx, true, 0)
	return b.Bytes()
}

func collectNamespaces(e *Element, ctx *nsContext) {
	// Deterministic ordering: gather URIs then sort before assignment.
	uris := map[string]bool{}
	var walk func(*Element)
	walk = func(el *Element) {
		if el.Name.Space != "" {
			uris[el.Name.Space] = true
		}
		for _, a := range el.Attrs {
			if a.Name.Space != "" {
				uris[a.Name.Space] = true
			}
		}
		for _, c := range el.Children {
			if ch, ok := c.(*Element); ok {
				walk(ch)
			}
		}
	}
	walk(e)
	sorted := make([]string, 0, len(uris))
	for u := range uris {
		sorted = append(sorted, u)
	}
	sort.Strings(sorted)
	for _, u := range sorted {
		ctx.prefix(u)
	}
}

func writeOpenTag(b encWriter, e *Element, ctx *nsContext, root bool) {
	b.WriteByte('<')
	writeQName(b, e.Name, ctx)
	if root {
		// Declare all namespaces on the root.
		uris := make([]string, 0, len(ctx.prefixes))
		for u := range ctx.prefixes {
			uris = append(uris, u)
		}
		sort.Strings(uris)
		for _, u := range uris {
			b.WriteString(` xmlns:`)
			b.WriteString(ctx.prefixes[u])
			b.WriteString(`="`)
			writeEscaped(b, u, true)
			b.WriteByte('"')
		}
	}
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		writeQName(b, a.Name, ctx)
		b.WriteString(`="`)
		writeEscaped(b, a.Value, true)
		b.WriteByte('"')
	}
}

func writeElement(b encWriter, e *Element, ctx *nsContext, root bool) {
	writeOpenTag(b, e, ctx, root)
	if len(e.Children) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteByte('>')
	for _, c := range e.Children {
		switch n := c.(type) {
		case Text:
			writeEscaped(b, string(n), false)
		case Raw:
			b.WriteString(string(n))
		case Lazy:
			if buf, ok := b.(*bytes.Buffer); ok {
				// Rendered after the buffer's contents, in its own room
				// where the renderer's need fits, and the result becomes
				// the buffer: nothing is copied, and a buffer the renderer
				// outgrew takes the renderer's allocation for its own
				// where a Write would grow it to a second one.
				*buf = *bytes.NewBuffer(n(buf.Bytes()))
				break
			}
			var spare []byte // a buffer's own room: rendered in place when it fits
			if buf, ok := b.(interface{ AvailableBuffer() []byte }); ok {
				spare = buf.AvailableBuffer()
			}
			b.Write(n(spare))
		case *Element:
			writeElement(b, n, ctx, false)
		}
	}
	b.WriteString("</")
	writeQName(b, e.Name, ctx)
	b.WriteByte('>')
}

func writeIndented(b encWriter, e *Element, ctx *nsContext, root bool, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	writeOpenTag(b, e, ctx, root)
	if len(e.Children) == 0 {
		b.WriteString("/>\n")
		return
	}
	elems := e.ChildElements()
	if len(elems) == 0 {
		b.WriteByte('>')
		writeEscaped(b, e.Text(), false)
		b.WriteString("</")
		writeQName(b, e.Name, ctx)
		b.WriteString(">\n")
		return
	}
	b.WriteString(">\n")
	for _, c := range elems {
		writeIndented(b, c, ctx, false, depth+1)
	}
	b.WriteString(indent)
	b.WriteString("</")
	writeQName(b, e.Name, ctx)
	b.WriteString(">\n")
}

func writeQName(b encWriter, n Name, ctx *nsContext) {
	if n.Space != "" {
		b.WriteString(ctx.prefixes[n.Space])
		b.WriteByte(':')
	}
	b.WriteString(n.Local)
}

// AppendEscaped appends s to dst with exactly Marshal's text-escaping
// rules (attr additionally escapes the double quote), for encoders that
// emit fragments byte-identical to a Marshal of the equivalent tree. It
// is writeEscaped for a byte slice; the two are kept apart because
// sharing the per-byte test through a function cost Marshal a tenth.
// A string that a word fits is tested eight bytes at a time first: a
// clean one, nearly every cell, is a single append. A shorter one, or
// one with a byte to escape, takes the byte loop.
func AppendEscaped(dst []byte, s string, attr bool) []byte {
	for i := 0; len(s) >= 8; i += 8 {
		i = min(i, len(s)-8) // the last word overlaps the one before
		w := load64(s, i)
		m := matches(w, '&') | matches(w, '<') | matches(w, '>')
		if attr {
			m |= matches(w, '"')
		}
		if m != 0 {
			break
		}
		if i == len(s)-8 {
			return append(dst, s...)
		}
	}
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		dst = append(append(dst, s[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// writeEscaped streams s with XML escaping, writing unescaped spans in
// single WriteString calls so clean text (the overwhelmingly common
// case for DAIS payloads) costs zero allocations. Attribute values
// additionally escape the double quote used as the delimiter.
func writeEscaped(b encWriter, s string, attr bool) {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if !attr {
				continue
			}
			esc = "&quot;"
		default:
			continue
		}
		b.WriteString(s[last:i])
		b.WriteString(esc)
		last = i + 1
	}
	b.WriteString(s[last:])
}

// Equal reports deep equality of two elements: same name, attributes
// (order-insensitive), and children (order-sensitive, whitespace-only
// text ignored around element children).
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for _, attr := range a.Attrs {
		v, ok := b.Attr(attr.Name.Space, attr.Name.Local)
		if !ok || v != attr.Value {
			return false
		}
	}
	ac, bc := normalChildren(a), normalChildren(b)
	if len(ac) != len(bc) {
		return false
	}
	for i := range ac {
		switch an := ac[i].(type) {
		case Text:
			bn, ok := bc[i].(Text)
			if !ok || an != bn {
				return false
			}
		case Raw:
			bn, ok := bc[i].(Raw)
			if !ok || an != bn {
				return false
			}
		case Lazy:
			bn, ok := bc[i].(Lazy)
			if !ok || !bytes.Equal(an(nil), bn(nil)) {
				return false
			}
		case *Element:
			bn, ok := bc[i].(*Element)
			if !ok || !Equal(an, bn) {
				return false
			}
		}
	}
	return true
}

func normalChildren(e *Element) []Node {
	hasElem := false
	for _, c := range e.Children {
		if _, ok := c.(*Element); ok {
			hasElem = true
		}
	}
	var out []Node
	for _, c := range e.Children {
		if t, ok := c.(Text); ok {
			if hasElem && strings.TrimSpace(string(t)) == "" {
				continue
			}
			// merge adjacent text
			if len(out) > 0 {
				if prev, ok := out[len(out)-1].(Text); ok {
					out[len(out)-1] = prev + t
					continue
				}
			}
		}
		out = append(out, c)
	}
	return out
}
