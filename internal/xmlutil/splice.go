package xmlutil

// This file holds what a relay needs to pass a document on as it was
// written, or nearly: the namespace scope the tokenizer stands in,
// elements copied from one document into another with the bindings
// their names need, and edits to an element's content. None of it
// builds a tree.

// Binding is one namespace binding. Prefix "" binds the default
// namespace.
type Binding struct {
	Prefix, URI string
}

// Scope appends the bindings in scope at the current token to dst,
// outermost first: where a prefix is bound twice the later entry holds.
func (t *Tokenizer) Scope(dst []Binding) []Binding {
	for _, b := range t.ns {
		dst = append(dst, Binding{Prefix: b.prefix, URI: b.uri})
	}
	return dst
}

// lookupBinding resolves prefix in a scope Scope returned.
func lookupBinding(scope []Binding, prefix string) (string, bool) {
	for i := len(scope) - 1; i >= 0; i-- {
		if scope[i].Prefix == prefix {
			return scope[i].URI, true
		}
	}
	return "", false
}

// RawName is the qualified name of the current start tag as written.
func (t *Tokenizer) RawName() []byte { return t.qnames[t.nameSlot].raw }

// CopyElement appends the element whose start tag is the current token
// to dst, through its end tag and as written, and leaves the tokenizer
// after it. into is the scope the copy will stand in, as Scope reports
// it. Where the element's names (its descendants' and its attributes'
// included) use a binding from outside the element that into lacks or
// binds otherwise, the copy's start tag declares it, so every name in
// the copy resolves to the URI it has here; an unprefixed element name
// that here has no default namespace gets xmlns="" where into has one.
// A prefix this document never declares is copied as it stands.
func (t *Tokenizer) CopyElement(dst []byte, into []Binding) ([]byte, error) {
	start, raw := t.tagStart, t.RawName()
	mark := t.emptyMark
	if !t.pendingEnd {
		mark = t.open[len(t.open)-1].nsMark
	}
	floor, usedOuter := t.nsFloor, t.usedOuter
	t.nsFloor, t.outerUsed, t.noDefault = mark, 0, false
	// The start tag's names resolved before the floor was set: again.
	prefix, _ := splitQName(raw)
	t.resolve(prefix, true)
	for _, a := range t.rawAttrs {
		t.resolve(a.prefix, false)
	}
	t.nsGen++ // names cached before the floor was set would skip its check
	err := t.Skip()
	used, noDefault := t.outerUsed, t.noDefault
	t.nsFloor, t.usedOuter = floor, usedOuter
	if err != nil {
		return dst, err
	}
	// Declarations go after the name. None can repeat one the tag
	// makes: a prefix the element binds itself never resolves outside it.
	nameEnd := start + 1 + len(raw)
	dst = append(dst, t.data[start:nameEnd]...)
	for i := range mark {
		if used&(1<<min(i, 63)) == 0 {
			continue
		}
		b := t.ns[i]
		if i >= 63 && shadowed(t.ns[i+1:mark], b.prefix) {
			continue // bit 63 stands for more bindings than resolve found
		}
		if uri, ok := lookupBinding(into, b.prefix); ok && uri == b.uri {
			continue
		}
		dst = appendDeclaration(dst, b.prefix, b.uri)
	}
	if uri, _ := lookupBinding(into, ""); noDefault && uri != "" {
		dst = appendDeclaration(dst, "", "")
	}
	return append(dst, t.data[nameEnd:t.pos]...), nil
}

// shadowed reports whether one of later binds prefix again.
func shadowed(later []nsBinding, prefix string) bool {
	for _, b := range later {
		if b.prefix == prefix {
			return true
		}
	}
	return false
}

func appendDeclaration(dst []byte, prefix, uri string) []byte {
	dst = append(dst, " xmlns"...)
	if prefix != "" {
		dst = append(append(dst, ':'), prefix...)
	}
	dst = append(dst, `="`...)
	dst = AppendEscaped(dst, uri, true)
	return append(dst, '"')
}

// EachChild hands every child element of the element whose start tag is
// the current token to f, standing on the child's start tag, and reads
// through the element's end tag. f reads through the child's end tag
// (Skip, say).
func (t *Tokenizer) EachChild(f func(*Tokenizer) error) error {
	for {
		kind, err := t.Next()
		if err != nil {
			return err
		}
		switch kind {
		case TokenStart:
			if err := f(t); err != nil {
				return err
			}
		case TokenEnd:
			return nil
		}
	}
}

// FirstChild reads on from the current start tag to its first child
// element's start tag; ok false after the element's end tag when it has
// none.
func (t *Tokenizer) FirstChild() (ok bool, err error) {
	for {
		kind, err := t.Next()
		if err != nil {
			return false, err
		}
		switch kind {
		case TokenStart:
			return true, nil
		case TokenEnd:
			return false, nil
		}
	}
}

// ElementText reads through the end tag of the element whose start tag
// is the current token and returns the text it holds, its descendants'
// included.
func (t *Tokenizer) ElementText() (string, error) {
	var text []byte
	for depth := 1; depth > 0; {
		kind, err := t.Next()
		if err != nil {
			return "", err
		}
		switch kind {
		case TokenText:
			text = append(text, t.Text()...)
		case TokenStart:
			depth++
		case TokenEnd:
			depth--
		}
	}
	return string(text), nil
}

// Edit replaces the bytes From:To of a document with With.
type Edit struct {
	From, To int
	With     []byte
}

// ApplyEdits returns a new slice holding data with the edits applied.
// They must be in document order and must not overlap.
func ApplyEdits(data []byte, edits ...Edit) []byte {
	n := len(data)
	for _, e := range edits {
		n += len(e.With) - (e.To - e.From)
	}
	out := make([]byte, 0, n)
	at := 0
	for _, e := range edits {
		out = append(append(out, data[at:e.From]...), e.With...)
		at = e.To
	}
	return append(out, data[at:]...)
}

// AppendEdit reads through the end tag of the element whose start tag
// is the current token, and returns the edit that appends content
// (markup, as written) to what the element holds: inserted before its
// end tag, or — an empty-element tag holding nothing — the tag opened,
// its "/>" become ">" content "</name>".
func (t *Tokenizer) AppendEdit(content []byte) (Edit, error) {
	return t.contentEdit(content, false)
}

// ContentEdit is AppendEdit replacing what the element holds with
// content instead of appending to it.
func (t *Tokenizer) ContentEdit(content []byte) (Edit, error) {
	return t.contentEdit(content, true)
}

func (t *Tokenizer) contentEdit(content []byte, replace bool) (Edit, error) {
	if t.pendingEnd {
		raw := t.RawName()
		with := make([]byte, 0, len(content)+len(raw)+4)
		with = append(append(append(append(with, '>'), content...), "</"...), raw...)
		e := Edit{From: t.pos - 2, To: t.pos, With: append(with, '>')}
		_, err := t.Next()
		return e, err
	}
	from := t.pos
	for depth := 1; ; {
		to := t.pos
		kind, err := t.Next()
		if err != nil {
			return Edit{}, err
		}
		switch kind {
		case TokenStart:
			depth++
		case TokenEnd:
			if depth--; depth == 0 {
				if !replace {
					from = to
				}
				return Edit{From: from, To: to, With: content}, nil
			}
		}
	}
}
