package xmlutil

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"unicode/utf8"
)

// This file holds the byte-oriented XML scanner. It replaces the
// encoding/xml tokenizer on the SOAP hot path: the standard decoder
// allocates per token (names, copied character data, attribute slices),
// which dominated the allocation profile of a DAIS round trip. The
// scanner is a pull Tokenizer over a single byte slice that interns
// qualified names — the repeated element vocabulary of a rowset costs
// one allocation per distinct name — and allocates nothing per token.
// It has two kinds of consumer: the tree builder (ParseBytes), which
// carves Element nodes out of chunked arenas, and decoders that turn a
// document straight into values without a tree (package rowset).
//
// Behaviour matches the previous encoding/xml-based implementation (the
// differential test in parse_test.go pins this): namespace prefixes are
// resolved with document scoping, unknown prefixes are preserved as the
// Space verbatim, xmlns declarations are dropped, comments / PIs /
// doctypes are skipped, CDATA is honoured, the five predefined entities
// plus character references are expanded, and "\r\n"/"\r" normalise to
// "\n" in both character data and attribute values.

// TokenKind says what Tokenizer.Next found.
type TokenKind uint8

const (
	// TokenEOF ends a well-formed document: one root element, closed.
	TokenEOF TokenKind = iota
	// TokenStart is a start tag; Name and Attrs describe it. An
	// empty-element tag yields TokenStart and then TokenEnd.
	TokenStart
	// TokenEnd is the end tag that matches the innermost open start tag.
	TokenEnd
	// TokenText is a run of character data or one CDATA section inside
	// an element; Text holds it decoded. Text outside the root element
	// is skipped.
	TokenText
)

// TokenAttr is one attribute of a start tag. Namespace declarations
// are consumed by the tokenizer and never appear as attributes.
type TokenAttr struct {
	Name  Name
	Value []byte // decoded; valid until the next call to Next
}

type nsBinding struct {
	prefix string
	uri    string
}

// openTag and the current-token fields of Tokenizer hold offsets into
// the document, not slices of it: the tokenizer writes them once per
// token, and a pointer written through a pointer costs a write barrier
// whenever the collector is marking — which, in a consumer pulling
// megabytes of rowset windows, is much of the time.
type openTag struct {
	rawStart, rawEnd int // qualified name as written, which the end tag must repeat
	nsMark           int // len(ns) before this element's declarations
}

// qnameEntry caches how one written element name resolved, for as
// long as the namespace bindings stay as they were (gen).
type qnameEntry struct {
	raw  []byte
	name Name
	gen  int
}

type rawAttr struct {
	prefix []byte
	local  []byte
	value  []byte
}

// Tokenizer is a pull scanner over a complete XML document held in
// memory, set up by Reset. The strings in the Names it returns are
// interned and may be kept; byte slices (Text, attribute values) point
// into the document or into scratch space and are valid only until the
// next call to Next.
type Tokenizer struct {
	data  []byte
	pos   int
	names map[string]string // names, prefixes and URIs outside the vocabulary, interned
	ns    []nsBinding
	nsGen int // counts changes to ns
	open  []openTag

	// Element vocabularies repeat heavily (a rowset is thousands of
	// Row/Value tags), so resolved element names are kept in a small
	// direct-mapped cache.
	qnames   [16]qnameEntry
	lastSlot [8]uint8 // by depth: the qnames slot of the last start tag

	rootSeen   bool
	pendingEnd bool // an empty-element tag's TokenEnd is due
	emptyMark  int  // len(ns) before that tag's declarations

	// The current token.
	nameSlot           int  // start tag: its entry in qnames
	textStart, textEnd int  // text token: its span in data, unless
	textDecoded        bool // decoding had to change it: then it is buf
	attrs              []TokenAttr
	tagStart           int // offset of the '<' of the current start tag

	rawAttrs []rawAttr
	buf      []byte // scratch for decoded character data
	abuf     []byte // scratch for decoded attribute values

	// usedOuter records that a name resolved through a binding below
	// nsFloor: the tree builder's test for whether a fragment depends on
	// declarations outside itself. outerUsed says which: bit i for the
	// binding ns[i], bit 63 for every binding from the 63rd up.
	// noDefault records that an unprefixed element name found no
	// default namespace. CopyElement reads both.
	nsFloor   int
	usedOuter bool
	outerUsed uint64
	noDefault bool

	// noVocabulary sends every name to the per-parse table: the reference
	// the vocabulary is tested against.
	noVocabulary bool
}

// Reset points the tokenizer at the start of the document in data,
// which it never modifies. The zero Tokenizer is ready for Reset, so
// one can live inside its consumer without an allocation of its own;
// one that is Reset again keeps its scratch space and nothing else.
func (t *Tokenizer) Reset(data []byte) {
	clear(t.attrs[:cap(t.attrs)]) // these two point into the last document
	clear(t.rawAttrs[:cap(t.rawAttrs)])
	*t = Tokenizer{data: data, noVocabulary: t.noVocabulary,
		ns: t.ns[:0], open: t.open[:0], attrs: t.attrs[:0], rawAttrs: t.rawAttrs[:0], buf: t.buf[:0], abuf: t.abuf[:0]}
}

// Name is the resolved name of the current start tag.
func (t *Tokenizer) Name() Name { return t.qnames[t.nameSlot].name }

// Attrs are the attributes of the current start tag, in document order.
func (t *Tokenizer) Attrs() []TokenAttr { return t.attrs }

// Attr returns the value of the first attribute of the current start
// tag with the given name.
func (t *Tokenizer) Attr(space, local string) ([]byte, bool) {
	for i := range t.attrs {
		if a := &t.attrs[i]; a.Name.Local == local && a.Name.Space == space {
			return a.Value, true
		}
	}
	return nil, false
}

// Text is the decoded character data of the current TokenText.
func (t *Tokenizer) Text() []byte {
	if t.textDecoded {
		return t.buf
	}
	return t.data[t.textStart:t.textEnd]
}

// Offset is how far into the document the tokenizer has read and Size
// how long the document is: what a consumer needs to guess how much of
// what it has seen so far is still to come.
func (t *Tokenizer) Offset() int { return t.pos }

// Size is the length of the document. See Offset.
func (t *Tokenizer) Size() int { return len(t.data) }

// Bytes is the document itself, TagOffset where in it the current start
// tag's '<' stands, and TextOffset where the current TokenText starts
// when that token is a run of character data that needed no decoding
// and ends at Offset — Text is then the document's own bytes — and -1
// otherwise. With Seek they let a consumer that has learnt, from tokens,
// the markup its producer repeats around every value read the
// repetitions from the bytes: the same bytes between the same open
// elements are the same tokens.
func (t *Tokenizer) Bytes() []byte { return t.data }

// TagOffset is the offset of the current start tag. See Bytes.
func (t *Tokenizer) TagOffset() int { return t.tagStart }

// TextOffset is the offset of the current undecoded text. See Bytes.
func (t *Tokenizer) TextOffset() int {
	if t.textDecoded || t.textEnd != t.pos {
		return -1
	}
	return t.textStart
}

// Seek moves the tokenizer on to off, over bytes the caller has read
// for itself: complete elements and what lies between them, so that the
// elements open at off are the ones open now.
func (t *Tokenizer) Seek(off int) { t.pos = off }

// PeekEnd reports whether the next token is an end tag. After a
// TokenText that says whether the text was all its element holds.
func (t *Tokenizer) PeekEnd() bool {
	return t.pendingEnd || t.pos+1 < len(t.data) && t.data[t.pos] == '<' && t.data[t.pos+1] == '/'
}

// Next advances to the next token. After an error or TokenEOF the
// tokenizer must not be used again.
func (t *Tokenizer) Next() (TokenKind, error) {
	if t.pendingEnd {
		t.pendingEnd = false
		t.popBindings(t.emptyMark)
		return TokenEnd, nil
	}
	for {
		// Character data up to the next markup.
		if start := t.pos; start < len(t.data) && t.data[start] != '<' {
			end, clean := ScanText(t.data, start)
			t.pos = end
			if len(t.open) > 0 {
				return TokenText, parseError(t.setText(start, end, clean, false))
			}
		}
		if t.pos >= len(t.data) {
			if !t.rootSeen {
				return TokenEOF, parseError(errors.New("empty document"))
			}
			if len(t.open) > 0 {
				return TokenEOF, parseError(errors.New("unexpected EOF inside element"))
			}
			return TokenEOF, nil
		}
		t.tagStart = t.pos
		t.pos++ // consume '<'
		if t.pos >= len(t.data) {
			return TokenEOF, parseError(errors.New("truncated markup"))
		}
		switch t.data[t.pos] {
		case '?':
			if err := t.skipUntil("?>"); err != nil {
				return TokenEOF, parseError(err)
			}
		case '!':
			isText, err := t.scanBang()
			if err != nil {
				return TokenEOF, parseError(err)
			}
			if isText {
				return TokenText, nil
			}
		case '/':
			return TokenEnd, parseError(t.scanEndTag())
		default:
			return TokenStart, parseError(t.scanStartTag())
		}
	}
}

// parseError marks an error as this package's.
func parseError(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("xmlutil: parse: %w", err)
}

// Skip consumes the rest of the element whose start tag is the current
// token, through its end tag.
func (t *Tokenizer) Skip() error {
	for depth := 1; depth > 0; {
		kind, err := t.Next()
		if err != nil {
			return err
		}
		switch kind {
		case TokenStart:
			depth++
		case TokenEnd:
			depth--
		}
	}
	return nil
}

// scanBang dispatches "<!"-markup: comments, CDATA and doctype. It
// reports whether it produced a text token (a CDATA section inside an
// element).
func (t *Tokenizer) scanBang() (isText bool, err error) {
	rest := t.data[t.pos:]
	switch {
	case len(rest) >= 3 && rest[1] == '-' && rest[2] == '-':
		t.pos += 3
		return false, t.skipUntil("-->")
	case len(rest) >= 8 && string(rest[:8]) == "![CDATA[":
		t.pos += 8
		end := indexFrom(t.data, t.pos, "]]>")
		if end < 0 {
			return false, errors.New("unterminated CDATA section")
		}
		start := t.pos
		t.pos = end + 3
		if len(t.open) == 0 {
			return false, nil
		}
		return true, t.setText(start, end, bytes.IndexByte(t.data[start:end], '\r') < 0, true)
	default:
		// DOCTYPE or other directive: skip to the matching '>',
		// tracking nested angle brackets (internal subsets).
		depth := 0
		for ; t.pos < len(t.data); t.pos++ {
			switch t.data[t.pos] {
			case '<':
				depth++
			case '>':
				if depth == 0 {
					t.pos++
					return false, nil
				}
				depth--
			}
		}
		return false, errors.New("unterminated directive")
	}
}

// ScanText finds the end of the character data that starts at pos — the
// next '<', or the end of data — and whether it is clean: free of
// anything decoding would change, so that a text token for it is the
// bytes themselves. Cells are short and adjacent tags have nothing
// between them, so it looks a word at a time for the first of '<', '&'
// and '\r' before paying for the vectorised search's set-up; the lowest
// flag of a word is exact, so a '&' or '\r' makes the text dirty only
// when it comes before the '<'. A byte loop takes what a word does not
// fit.
func ScanText(data []byte, pos int) (end int, clean bool) {
	near := min(pos+48, len(data))
	for ; pos+8 <= near; pos += 8 {
		w := binary.LittleEndian.Uint64(data[pos:])
		if m := matches(w, '<') | matches(w, '&') | matches(w, '\r'); m != 0 {
			if pos += firstFlag(m); data[pos] == '<' {
				return pos, true
			}
			return dirtyTextEnd(data, pos)
		}
	}
	for ; pos < near; pos++ {
		switch data[pos] {
		case '<':
			return pos, true
		case '&', '\r':
			return dirtyTextEnd(data, pos)
		}
	}
	rest := data[pos:]
	if i := bytes.IndexByte(rest, '<'); i >= 0 {
		rest = rest[:i]
	}
	clean = bytes.IndexByte(rest, '&') < 0 && bytes.IndexByte(rest, '\r') < 0
	return pos + len(rest), clean
}

// dirtyTextEnd finishes ScanText from a '&' or '\r' that came before
// any '<'.
func dirtyTextEnd(data []byte, pos int) (end int, clean bool) {
	if i := bytes.IndexByte(data[pos:], '<'); i >= 0 {
		return pos + i, false
	}
	return len(data), false
}

// setText makes data[start:end] the current text token, decoded.
func (t *Tokenizer) setText(start, end int, clean, cdata bool) error {
	t.textStart, t.textEnd, t.textDecoded = start, end, !clean
	if clean {
		return nil
	}
	var err error
	_, t.buf, err = decodeText(t.data[start:end], cdata, t.buf[:0])
	return err
}

func (t *Tokenizer) scanEndTag() error {
	t.pos++ // consume '/'
	if len(t.open) == 0 {
		return errors.New("unbalanced end element")
	}
	top := &t.open[len(t.open)-1]
	want := t.data[top.rawStart:top.rawEnd]
	if rest := t.data[t.pos:]; len(rest) > len(want) && rest[len(want)] == '>' &&
		string(rest[:len(want)]) == string(want) {
		t.pos += len(want) + 1 // the name expected, closed at once: nearly every end tag
	} else {
		name, err := t.readName()
		if err != nil {
			return err
		}
		t.skipSpace()
		if t.pos >= len(t.data) || t.data[t.pos] != '>' {
			return errors.New("malformed end tag")
		}
		t.pos++
		if string(name) != string(want) {
			return fmt.Errorf("element <%s> closed by </%s>", want, name)
		}
	}
	t.popBindings(top.nsMark)
	t.open = t.open[:len(t.open)-1]
	return nil
}

func (t *Tokenizer) popBindings(mark int) {
	if len(t.ns) != mark {
		t.ns = t.ns[:mark]
		t.nsGen++
	}
}

// scanStartTag scans a start or empty-element tag and resolves its
// namespaces: declarations first, whatever their position in the tag.
func (t *Tokenizer) scanStartTag() error {
	// Guess the name before reading it: siblings and cousins repeat, so
	// the last element opened at this depth is the best candidate, and
	// comparing against it is cheaper than finding where the name ends.
	rawStart, depth, slot := t.pos, min(len(t.open), len(t.lastSlot)-1), -1
	var raw []byte
	if guess := t.qnames[t.lastSlot[depth]].raw; len(guess) > 0 && len(t.data)-rawStart > len(guess) &&
		nameDelim[t.data[rawStart+len(guess)]] && string(t.data[rawStart:rawStart+len(guess)]) == string(guess) {
		raw, slot = t.data[rawStart:rawStart+len(guess)], int(t.lastSlot[depth])
		t.pos += len(guess)
	} else {
		var err error
		if raw, err = t.readName(); err != nil {
			return err
		}
	}
	nsMark := len(t.ns)
	if len(t.rawAttrs) > 0 {
		t.rawAttrs = t.rawAttrs[:0]
	}
	selfClose := false
	for {
		t.skipSpace()
		if t.pos >= len(t.data) {
			return errors.New("truncated start tag")
		}
		switch t.data[t.pos] {
		case '>':
			t.pos++
		case '/':
			if t.pos+1 >= len(t.data) || t.data[t.pos+1] != '>' {
				return errors.New("malformed start tag")
			}
			t.pos += 2
			selfClose = true
		default:
			aname, err := t.readName()
			if err != nil {
				return err
			}
			t.skipSpace()
			if t.pos >= len(t.data) || t.data[t.pos] != '=' {
				return fmt.Errorf("attribute %s missing value", aname)
			}
			t.pos++
			t.skipSpace()
			val, err := t.readAttrValue()
			if err != nil {
				return err
			}
			prefix, local := splitQName(aname)
			isDefault := len(prefix) == 0 && string(local) == "xmlns"
			if isDefault || string(prefix) == "xmlns" {
				var uri []byte
				uri, t.buf, err = decodeText(val, false, t.buf[:0])
				if err != nil {
					return err
				}
				b := nsBinding{uri: t.intern(uri)}
				if !isDefault {
					b.prefix = t.intern(local)
				}
				t.ns = append(t.ns, b)
				t.nsGen++
				continue
			}
			t.rawAttrs = append(t.rawAttrs, rawAttr{prefix: prefix, local: local, value: val})
			continue
		}
		break
	}
	if len(t.open) == 0 && t.rootSeen {
		return errors.New("multiple root elements")
	}

	guessed := slot >= 0
	if !guessed {
		slot = (len(raw)*7 + int(raw[len(raw)-1])*3 + int(raw[len(raw)/2])) % len(t.qnames)
	}
	t.nameSlot, t.lastSlot[depth] = slot, uint8(slot)
	if cached := &t.qnames[slot]; cached.gen != t.nsGen || !guessed && string(cached.raw) != string(raw) {
		prefix, local := splitQName(raw)
		if !validLocalNameBytes(local) {
			return fmt.Errorf("invalid element name %q", local)
		}
		name := Name{Space: t.resolve(prefix, true), Local: t.intern(local)}
		*cached = qnameEntry{raw: raw, name: name, gen: t.nsGen}
	}
	if len(t.attrs) > 0 {
		t.attrs, t.abuf = t.attrs[:0], t.abuf[:0]
	}
	for _, a := range t.rawAttrs {
		if !validLocalNameBytes(a.local) {
			return fmt.Errorf("invalid attribute name %q", a.local)
		}
		// A decoded value may sit in abuf; a later append that moves
		// abuf leaves the bytes of this one where they are.
		var v []byte
		var err error
		v, t.abuf, err = decodeText(a.value, false, t.abuf)
		if err != nil {
			return err
		}
		t.attrs = append(t.attrs, TokenAttr{
			Name:  Name{Space: t.resolve(a.prefix, false), Local: t.intern(a.local)},
			Value: v,
		})
	}
	t.rootSeen = true
	if selfClose {
		// Its declarations stay in scope until its TokenEnd, as an
		// element's do until its end tag.
		t.emptyMark, t.pendingEnd = nsMark, true
		return nil
	}
	t.open = append(t.open, openTag{rawStart: rawStart, rawEnd: rawStart + len(raw), nsMark: nsMark})
	return nil
}

// resolve maps a prefix to a namespace URI using the active bindings.
// Elements without a prefix take the default namespace; attributes do
// not. Undeclared prefixes are kept verbatim as the Space, matching
// encoding/xml.
func (t *Tokenizer) resolve(prefix []byte, isElement bool) string {
	if len(prefix) == 0 && !isElement {
		return ""
	}
	for i := len(t.ns) - 1; i >= 0; i-- {
		if t.ns[i].prefix == string(prefix) {
			if i < t.nsFloor {
				t.usedOuter = true
				t.outerUsed |= 1 << min(i, 63)
			}
			return t.ns[i].uri
		}
	}
	if len(prefix) == 0 {
		t.noDefault = true
		return ""
	}
	if string(prefix) == "xml" { // predeclared by the XML spec
		return "http://www.w3.org/XML/1998/namespace"
	}
	return t.intern(prefix)
}

// vocabulary holds the names, prefixes and namespace URIs the
// program's own messages are made of, so that reading one allocates no
// string for them. It is written by RegisterVocabulary during package
// initialisation and only read afterwards.
var vocabulary = map[string]string{}

// RegisterVocabulary adds element and attribute local names, namespace
// prefixes and namespace URIs to the process-wide table parsed names
// are taken from. The package that gives a word its meaning registers
// it from an init function or a package-level variable initialiser;
// registering after the first parse is a data race. A name that is not
// registered costs what it always did: one string per document that
// uses it.
func RegisterVocabulary(words ...string) {
	for _, w := range words {
		vocabulary[w] = w
	}
}

// Marshal's generated prefixes: every document this program wrote.
func init() {
	RegisterVocabulary("ns0", "ns1", "ns2", "ns3", "ns4", "ns5", "ns6", "ns7", "ns8", "ns9")
}

// intern returns a string for b without allocating when b is in the
// vocabulary or was seen earlier in the document (an open-content
// vocabulary repeats too: a rowset is thousands of Row/Value tags).
func (t *Tokenizer) intern(b []byte) string {
	if !t.noVocabulary {
		if s, ok := vocabulary[string(b)]; ok { // compiler-optimised, no alloc
			return s
		}
	}
	if s, ok := t.names[string(b)]; ok {
		return s
	}
	if t.names == nil {
		t.names = make(map[string]string)
	}
	s := string(b)
	t.names[s] = s
	return s
}

// readName consumes a qualified name.
func (t *Tokenizer) readName() ([]byte, error) {
	data, end := t.data, t.pos // in locals, so the loop runs in registers
	for end < len(data) && !nameDelim[data[end]] {
		end++
	}
	if end == t.pos {
		return nil, errors.New("expected name")
	}
	name := data[t.pos:end]
	t.pos = end
	return name, nil
}

// nameDelim marks the bytes that end a qualified name.
var nameDelim = [256]bool{' ': true, '\t': true, '\n': true, '\r': true,
	'=': true, '>': true, '/': true, '<': true, '"': true, '\'': true}

func splitQName(b []byte) (prefix, local []byte) {
	for i, c := range b {
		if c == ':' {
			return b[:i], b[i+1:]
		}
	}
	return nil, b
}

// readAttrValue consumes a quoted attribute value, returning the raw
// bytes between the quotes (entities still encoded).
func (t *Tokenizer) readAttrValue() ([]byte, error) {
	if t.pos >= len(t.data) {
		return nil, errors.New("truncated attribute value")
	}
	quote := t.data[t.pos]
	if quote != '"' && quote != '\'' {
		return nil, errors.New("unquoted attribute value")
	}
	t.pos++
	start := t.pos
	for t.pos < len(t.data) && t.data[t.pos] != quote {
		if t.data[t.pos] == '<' {
			return nil, errors.New("'<' in attribute value")
		}
		t.pos++
	}
	if t.pos >= len(t.data) {
		return nil, errors.New("unterminated attribute value")
	}
	val := t.data[start:t.pos]
	t.pos++
	return val, nil
}

func (t *Tokenizer) skipSpace() {
	for t.pos < len(t.data) {
		switch t.data[t.pos] {
		case ' ', '\t', '\n', '\r':
			t.pos++
		default:
			return
		}
	}
}

func (t *Tokenizer) skipUntil(marker string) error {
	end := indexFrom(t.data, t.pos, marker)
	if end < 0 {
		return fmt.Errorf("unterminated %q markup", marker)
	}
	t.pos = end + len(marker)
	return nil
}

func indexFrom(data []byte, from int, sep string) int {
	for i := from; i+len(sep) <= len(data); i++ {
		if string(data[i:i+len(sep)]) == sep {
			return i
		}
	}
	return -1
}

// decodeText decodes raw character data: entity references expand
// (unless cdata), and "\r\n"/"\r" normalise to "\n". Clean input — the
// common case — is returned as it stands; otherwise the decoded bytes
// are appended to scratch, and the grown scratch is returned with them.
func decodeText(raw []byte, cdata bool, scratch []byte) (text, grown []byte, err error) {
	dirty := -1
	for i, c := range raw {
		if c == '\r' || (!cdata && c == '&') {
			dirty = i
			break
		}
	}
	if dirty < 0 {
		return raw, scratch, nil
	}
	mark := len(scratch)
	buf := append(scratch, raw[:dirty]...)
	for i := dirty; i < len(raw); {
		switch c := raw[i]; {
		case c == '\r':
			buf = append(buf, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		case c == '&' && !cdata:
			r, width, err := decodeEntity(raw[i:])
			if err != nil {
				return nil, scratch, err
			}
			buf = utf8.AppendRune(buf, r)
			i += width
		default:
			buf = append(buf, c)
			i++
		}
	}
	return buf[mark:], buf, nil
}

// decodeEntity expands one entity or character reference starting at
// b[0] == '&', returning the rune and the encoded width.
func decodeEntity(b []byte) (rune, int, error) {
	end := -1
	for i := 1; i < len(b) && i < 36; i++ {
		if b[i] == ';' {
			end = i
			break
		}
	}
	if end < 0 {
		return 0, 0, errors.New("invalid character entity")
	}
	name := b[1:end]
	if len(name) > 1 && name[0] == '#' {
		var n rune
		digits := name[1:]
		base := rune(10)
		if len(digits) > 1 && (digits[0] == 'x' || digits[0] == 'X') {
			base, digits = 16, digits[1:]
		}
		if len(digits) == 0 {
			return 0, 0, errors.New("invalid character entity")
		}
		for _, d := range digits {
			var v rune
			switch {
			case '0' <= d && d <= '9':
				v = rune(d - '0')
			case base == 16 && 'a' <= d && d <= 'f':
				v = rune(d-'a') + 10
			case base == 16 && 'A' <= d && d <= 'F':
				v = rune(d-'A') + 10
			default:
				return 0, 0, errors.New("invalid character entity")
			}
			n = n*base + v
			if n > utf8.MaxRune {
				return 0, 0, errors.New("invalid character entity")
			}
		}
		if !inCharacterRange(n) {
			return 0, 0, errors.New("invalid character entity")
		}
		return n, end + 1, nil
	}
	switch string(name) {
	case "lt":
		return '<', end + 1, nil
	case "gt":
		return '>', end + 1, nil
	case "amp":
		return '&', end + 1, nil
	case "apos":
		return '\'', end + 1, nil
	case "quot":
		return '"', end + 1, nil
	}
	return 0, 0, fmt.Errorf("unknown entity &%s;", name)
}

// inCharacterRange mirrors the XML 1.0 Char production.
func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// validLocalNameBytes is validLocalName over raw bytes without an
// intermediate string.
func validLocalNameBytes(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	first := true
	for i := 0; i < len(b); {
		r, size := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
		}
		if first {
			if !isNameStart(r) {
				return false
			}
			first = false
		} else if !isNameChar(r) {
			return false
		}
		i += size
	}
	return true
}
