package sqlengine

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokParam  // ? positional parameter
)

type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents case-preserved
	pos  int    // byte offset in the input, for error messages
}

// keywords recognised by the lexer. Identifiers matching these
// (case-insensitively) become tokKeyword with upper-case text.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "UPDATE": true, "SET": true,
	"DELETE": true, "CREATE": true, "DROP": true, "TABLE": true,
	"INDEX": true, "ON": true, "PRIMARY": true, "KEY": true,
	"NOT": true, "NULL": true, "AND": true, "OR": true, "IN": true,
	"IS": true, "LIKE": true, "BETWEEN": true, "ORDER": true,
	"BY": true, "ASC": true, "DESC": true, "GROUP": true,
	"HAVING": true, "LIMIT": true, "OFFSET": true, "AS": true,
	"JOIN": true, "INNER": true, "LEFT": true, "RIGHT": true, "OUTER": true,
	"CROSS": true, "DISTINCT": true, "COUNT": true, "SUM": true,
	"AVG": true, "MIN": true, "MAX": true, "TRUE": true,
	"FALSE": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"TRANSACTION": true, "DEFAULT": true, "UNIQUE": true,
	"IF": true, "EXISTS": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "CAST": true,
	"UNION": true, "ALL": true, "VIEW": true,
	"EXPLAIN": true, "ORDERED": true,
}

// lex tokenises a SQL statement. It returns a slice ending with tokEOF.
// Parentheses nested past maxExprDepth end it early: the parser would
// refuse them, and the statement may be megabytes long.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	depth := 0 // parentheses open
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			if depth++; depth > maxExprDepth {
				return nil, errTooDeep
			}
			toks = append(toks, token{kind: tokSymbol, text: "(", pos: i})
			i++
		case c == ')':
			depth--
			toks = append(toks, token{kind: tokSymbol, text: ")", pos: i})
			i++
		case c == '-' && i+1 < n && input[i+1] == '-':
			for i < n && input[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && input[i+1] == '*':
			end := strings.Index(input[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sql: unterminated comment at offset %d", i)
			}
			i += end + 4
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
			}
			toks = append(toks, token{kind: tokString, text: b.String(), pos: start})
		case c == '"':
			// Delimited identifier.
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < n {
				if input[i] == '"' {
					if i+1 < n && input[i+1] == '"' {
						b.WriteByte('"')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated identifier at offset %d", start)
			}
			toks = append(toks, token{kind: tokIdent, text: b.String(), pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot := false
			seenExp := false
			for i < n {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (input[i] == '+' || input[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case c == '?':
			toks = append(toks, token{kind: tokParam, text: "?", pos: i})
			i++
		case isIdentStart(rune(c)):
			start := i
			for i < n && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tokKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			// Multi-character operators first.
			for _, op := range []string{"<>", "<=", ">=", "!=", "||"} {
				if strings.HasPrefix(input[i:], op) {
					toks = append(toks, token{kind: tokSymbol, text: op, pos: i})
					i += len(op)
					goto next
				}
			}
			switch c {
			case ',', '*', '+', '-', '/', '=', '<', '>', '.', ';', '%':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		next:
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
