package soap

import (
	"errors"
	"fmt"
	"sync"

	"dais/internal/xmlutil"
)

// This file reads and edits envelopes as written, for a relay that
// passes them on: no tree is built.

// tokenizers recycles the tokenizers envelopes are read with here and
// by GetTokenizer's callers.
var tokenizers = sync.Pool{New: func() any { return new(xmlutil.Tokenizer) }}

// GetTokenizer draws a tokenizer for reading a wire envelope;
// PutTokenizer returns it. Nothing read through it may be kept: Names
// may, byte slices may not.
func GetTokenizer() *xmlutil.Tokenizer { return tokenizers.Get().(*xmlutil.Tokenizer) }

// PutTokenizer returns a tokenizer GetTokenizer drew.
func PutTokenizer(t *xmlutil.Tokenizer) {
	t.Reset(nil)
	tokenizers.Put(t)
}

// ReadToBody reads the envelope in wire up to its body entry: on
// return t stands on the entry's start tag, or — ok false — after the
// end tag of an empty Body. Each header entry is handed to header (nil
// skips them), standing on the entry's start tag; header reads through
// its end tag (Skip, or an edit's read).
func ReadToBody(t *xmlutil.Tokenizer, wire []byte, header func(*xmlutil.Tokenizer) error) (ok bool, err error) {
	t.Reset(wire)
	if err := rootEnvelope(t); err != nil {
		return false, err
	}
	for {
		kind, err := t.Next()
		if err != nil {
			return false, fmt.Errorf("soap: %w", err)
		}
		switch kind {
		case xmlutil.TokenEnd, xmlutil.TokenEOF:
			return false, errors.New("soap: envelope has no Body")
		case xmlutil.TokenStart:
			switch name := t.Name(); {
			case name.Matches(NSEnvelope, "Body"):
				if ok, err = t.FirstChild(); err != nil {
					err = fmt.Errorf("soap: %w", err)
				}
				return ok, err
			case name.Matches(NSEnvelope, "Header") && header != nil:
				if err := t.EachChild(header); err != nil {
					return false, err
				}
			default:
				if err := t.Skip(); err != nil {
					return false, fmt.Errorf("soap: %w", err)
				}
			}
		}
	}
}

// rootEnvelope reads the root start tag, which must be an Envelope.
func rootEnvelope(t *xmlutil.Tokenizer) error {
	for {
		kind, err := t.Next()
		if err != nil {
			return fmt.Errorf("soap: %w", err)
		}
		if kind == xmlutil.TokenStart {
			if n := t.Name(); !n.Matches(NSEnvelope, "Envelope") {
				return fmt.Errorf("soap: root element %s is not a SOAP envelope", n)
			}
			return nil
		}
	}
}

// stampRequestID returns a copy of the envelope in wire whose
// request-ID header is id: the header's content replaced, or the header
// added as the Header's last entry — to a new Header before the Body
// where the envelope has none.
func stampRequestID(wire []byte, id string) ([]byte, error) {
	t := GetTokenizer()
	defer PutTokenizer(t)
	entry := xmlutil.AppendEscaped([]byte(`<p:`+requestIDHeader+` xmlns:p="`+NSPipeline+`">`), id, false)
	entry = append(entry, `</p:`+requestIDHeader+`>`...)
	t.Reset(wire)
	if err := rootEnvelope(t); err != nil {
		return nil, err
	}
	for {
		kind, err := t.Next()
		if err != nil {
			return nil, fmt.Errorf("soap: %w", err)
		}
		if kind != xmlutil.TokenStart {
			return nil, errors.New("soap: envelope has no Body")
		}
		switch name := t.Name(); {
		case name.Matches(NSEnvelope, "Header"):
			edit, err := headerEdit(t, id, entry)
			if err != nil {
				return nil, err
			}
			return xmlutil.ApplyEdits(wire, edit), nil
		case name.Matches(NSEnvelope, "Body"):
			raw := t.RawName()
			prefix := raw[:len(raw)-len("Body")] // "ns0:", or "" where Body takes the default namespace
			header := append(append([]byte("<"), prefix...), "Header>"...)
			header = append(append(append(append(header, entry...), "</"...), prefix...), "Header>"...)
			at := t.TagOffset()
			return xmlutil.ApplyEdits(wire, xmlutil.Edit{From: at, To: at, With: header}), nil
		}
		if err := t.Skip(); err != nil {
			return nil, fmt.Errorf("soap: %w", err)
		}
	}
}

// headerEdit reads the Header just opened and returns the edit that
// makes id its request ID: the RequestID entry's content where it has
// one, entry appended otherwise.
func headerEdit(t *xmlutil.Tokenizer, id string, entry []byte) (xmlutil.Edit, error) {
	// A Header's entries are read one by one; where none is the
	// RequestID, the entry goes in before the Header's end tag, which
	// AppendEdit finds from the Header's start tag: read it twice.
	start := *t
	var edit xmlutil.Edit
	found := false
	err := t.EachChild(func(t *xmlutil.Tokenizer) error {
		if !found && t.Name().Matches(NSPipeline, requestIDHeader) {
			found = true
			var err error
			edit, err = t.ContentEdit(xmlutil.AppendEscaped(nil, id, false))
			return err
		}
		return t.Skip()
	})
	if err != nil || found {
		return edit, err
	}
	*t = start
	return t.AppendEdit(entry)
}
