package xmlutil

import (
	"bytes"
	"sync"
)

// arenaChunk is the most Elements, and the most single-child Children
// slots, allocated at once while parsing: the size of every chunk of a
// document long enough to fill it, a rowset window say. A shorter
// document gets chunks sized to what it still has to say (chunkLen), so
// a 15-element envelope does not pay for 128 elements it never builds.
const arenaChunk = 128

// bytesPerElement is the guess at a document's density before any of
// it has been read: an envelope's tags, namespace URIs and addressing
// headers run to 80–100 bytes an element, a rowset's cells to 15–30.
// Guessing sparse costs a dense document a second, measured chunk;
// guessing dense costs every small message elements it never builds.
const bytesPerElement = 96

// treeBuilder is the tokenizer consumer that materialises the element
// tree.
type treeBuilder struct {
	tok      Tokenizer
	arena    []Element
	nodes    []Node
	made     int // elements handed out so far
	verbatim []Name
	decode   PayloadDecoder

	// fixedChunks makes every chunk arenaChunk long whatever the
	// document: the reference the sizing is tested against.
	fixedChunks bool
}

// builders recycles the builder, tokenizer scratch included, between
// parses: a payload decoder is handed a pointer to the tokenizer, so a
// builder declared in ParseBytesDecoding would be a kilobyte of heap a
// parse.
var builders = sync.Pool{New: func() any { return new(treeBuilder) }}

// ParseBytes parses a complete XML document held in memory and returns
// its root element. It is the allocation-conscious core that Parse and
// ParseString delegate to; the returned tree never aliases data.
func ParseBytes(data []byte) (*Element, error) {
	return ParseBytesVerbatim(data, nil)
}

// ParseBytesVerbatim is ParseBytes, except that an element named in
// verbatim whose content is exactly one element keeps that content as a
// single Raw child — the child element's bytes as they stand in data,
// copied once — with no subtree built under it. A consumer that only
// hands the fragment on (to a decoder, or into another document through
// Marshal) then never pays for a tree. The Raw contract holds: a child
// element that resolves a prefix through a declaration outside itself
// is not a standalone fragment, and is built as a subtree as usual.
func ParseBytesVerbatim(data []byte, verbatim []Name) (*Element, error) {
	return ParseBytesDecoding(data, verbatim, nil)
}

// PayloadDecoder consumes the content of a verbatim element in the
// parse's own token pass. payload is the element, name and attributes
// set; t stands on the start tag of its one child element, and a
// decoder that takes the content reads through that child's end tag
// and reports true. One that reports false may leave t anywhere. What
// it keeps of the content it must copy: t reads the parse's input, and
// t itself goes back to a pool when the parse returns.
type PayloadDecoder func(payload *Element, t *Tokenizer) bool

// ParseBytesDecoding is ParseBytesVerbatim for a caller that does not
// want a verbatim element's content handed on but decoded: wherever
// ParseBytesVerbatim would keep a Raw child, decode (unless nil) is
// offered the content first, and if it takes it the element is left
// without children — the caller has the content in whatever form decode
// made of it, and the fragment was tokenized once, not scanned to find
// its end, copied out and tokenized again. If decode turns the content
// down, or the content is not a standalone fragment, the tokenizer is
// rewound to where the content starts and the parse goes on as
// ParseBytesVerbatim's, so its tree and its errors are those.
func ParseBytesDecoding(data []byte, verbatim []Name, decode PayloadDecoder) (*Element, error) {
	b := builders.Get().(*treeBuilder)
	b.verbatim, b.decode = verbatim, decode
	b.tok.Reset(data)
	root, err := b.run()
	// The tree owns the arenas; the pool keeps nothing of the document.
	b.arena, b.nodes, b.made, b.verbatim, b.decode = nil, nil, 0, nil, nil
	b.tok.Reset(nil)
	builders.Put(b)
	return root, err
}

func (b *treeBuilder) run() (*Element, error) {
	var root, cur *Element
	t := &b.tok
	for {
		kind, err := t.Next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case TokenEOF:
			return root, nil
		case TokenText:
			b.appendChild(cur, Text(t.Text()))
		case TokenStart:
			el := b.newElement()
			el.Name = t.Name()
			if len(t.attrs) > 0 {
				el.Attrs = make([]Attr, len(t.attrs))
				for i, a := range t.attrs {
					el.Attrs[i] = Attr{Name: a.Name, Value: string(a.Value)}
				}
			}
			if cur == nil {
				root = el
			} else {
				el.parent = cur
				b.appendChild(cur, el)
			}
			cur = el
			if b.keepsVerbatim(el.Name) && !t.pendingEnd {
				// A failed attempt to decode, malformed content included,
				// costs a rewind: the verbatim scan then finds what it finds.
				taken := false
				if b.decode != nil {
					_, taken, _ = b.scanVerbatim(el, b.decode)
				}
				if !taken {
					raw, ok, err := b.scanVerbatim(el, nil)
					if err != nil {
						return nil, err
					}
					if taken = ok; ok {
						b.appendChild(cur, raw)
					}
				}
				if taken { // the scan consumed the end tag too
					cur = cur.parent
				}
			}
		case TokenEnd:
			trimWhitespaceBetweenElements(cur)
			cur = cur.parent
		}
	}
}

func (b *treeBuilder) keepsVerbatim(n Name) bool {
	for i := range b.verbatim {
		if v := &b.verbatim[i]; v.Local == n.Local && v.Space == n.Space {
			return true
		}
	}
	return false
}

// scanVerbatim runs after the start tag of the verbatim element el. It
// tokenizes through the matching end tag without building nodes — so a
// malformed fragment fails the parse exactly as it would have — and
// returns the content as a Raw when that is one standalone element.
// Otherwise it rewinds the tokenizer to where it started. Given a
// decoder, the one child element is the decoder's to read instead, and
// a content it takes comes back as ok with an empty Raw.
func (b *treeBuilder) scanVerbatim(el *Element, decode PayloadDecoder) (Raw, bool, error) {
	t := &b.tok
	rewind := *t // stack entries below the saved lengths are never written
	t.nsFloor, t.usedOuter = len(t.ns), false
	t.nsGen++ // names cached before the floor was set would skip its check
	start, end, children, depth := 0, 0, 0, 0
	standalone := true
scan:
	for standalone {
		kind, err := t.Next()
		if err != nil {
			*t = rewind
			return "", false, err
		}
		switch kind {
		case TokenText:
			// Blank as trimWhitespaceBetweenElements counts it: what the
			// tree path would drop beside an element child.
			if depth == 0 && len(bytes.TrimSpace(t.Text())) > 0 {
				standalone = false
			}
		case TokenStart:
			if depth == 0 {
				children++
				start = t.tagStart
				if decode != nil {
					standalone = children == 1 && decode(el, t)
					continue
				}
			}
			depth++
		case TokenEnd:
			if depth == 0 {
				break scan
			}
			if depth--; depth == 0 {
				end = t.pos
			}
		}
	}
	if !standalone || children != 1 || t.usedOuter {
		*t = rewind
		return "", false, nil
	}
	t.nsFloor = 0
	if decode != nil {
		return "", true, nil
	}
	return Raw(t.data[start:end]), true, nil
}

// chunkLen sizes the next arena chunk: the elements still to come if
// the rest of the document is as dense as what has been read.
func (b *treeBuilder) chunkLen() int {
	if b.fixedChunks {
		return arenaChunk
	}
	t := &b.tok
	rest := len(t.data) - t.pos
	n := rest / bytesPerElement
	if b.made > 0 {
		n = int(int64(rest) * int64(b.made) / int64(t.pos))
	}
	return min(n+4, arenaChunk)
}

// newElement hands out a node from the arena, growing it in chunks so
// a document costs O(elements/chunk) allocations for its nodes.
func (b *treeBuilder) newElement() *Element {
	if len(b.arena) == cap(b.arena) {
		b.arena = make([]Element, 0, b.chunkLen())
	}
	b.made++
	b.arena = b.arena[:len(b.arena)+1]
	return &b.arena[len(b.arena)-1]
}

// appendChild attaches a child node. The first child of an element
// lives in a shared arena slice capped at one entry, so the dominant
// single-text-leaf shape costs no slice allocation; a second child
// forces an ordinary append reallocation out of the arena.
func (b *treeBuilder) appendChild(el *Element, n Node) {
	if el.Children == nil {
		if len(b.nodes) == cap(b.nodes) {
			b.nodes = make([]Node, 0, b.chunkLen())
		}
		start := len(b.nodes)
		b.nodes = b.nodes[:start+1]
		b.nodes[start] = n
		el.Children = b.nodes[start : start+1 : start+1]
		return
	}
	el.Children = append(el.Children, n)
}
