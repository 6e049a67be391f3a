// Package sql implements a small SQL front end for the query model: the
// SELECT-PROJECT-JOIN-AGGREGATE dialect the Join-Order Benchmark uses
// (SELECT MIN(...)/columns FROM t AS a, ... WHERE <conjunction> GROUP BY ...),
// which is exactly the shape nKV's MySQL layer hands to hybridNDP. Parsed
// statements compile to query.Query values ready for the optimizer.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , ; . = < > <= >= <> !=
	tokKeyword
)

// keywords lists the reserved words, upper-case, by length.
var keywords = [...][]string{
	2: {"AS", "BY", "IN", "IS", "OR"},
	3: {"AND", "AVG", "MAX", "MIN", "NOT", "SUM"},
	4: {"FROM", "LIKE", "NULL"},
	5: {"COUNT", "GROUP", "WHERE"},
	6: {"SELECT"},
	7: {"BETWEEN"},
}

// keyword returns the canonical spelling of word if it is a reserved word in
// any ASCII letter case. It compares in place: the statement's identifiers
// outnumber its keywords, and none of them needs an upper-cased copy.
func keyword(word string) (string, bool) {
	if len(word) >= len(keywords) {
		return "", false
	}
next:
	for _, kw := range keywords[len(word)] {
		for i := 0; i < len(kw); i++ {
			c := word[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw, true
	}
	return "", false
}

type token struct {
	kind tokenKind
	text string // keywords upper-cased, identifiers as written
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// lex splits the input into tokens. SQL strings use single quotes, doubled to
// escape one; identifiers are bare words; keywords are case-insensitive. Token
// texts are slices of the input wherever the two agree byte for byte, which is
// everywhere but keywords and string literals holding an escaped quote.
func lex(input string) ([]token, error) {
	// JOB statements run to a token per 3.5 to 4 bytes; the estimate only has
	// to make regrowth rare.
	out := make([]token, 0, len(input)/3+2)
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			escaped := false
			for {
				if i >= len(input) {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' {
						escaped = true
						i += 2
						continue
					}
					i++
					break
				}
				i++
			}
			text := input[start+1 : i-1]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			out = append(out, token{tokString, text})
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9':
			start := i
			i++
			for i < len(input) && input[i] >= '0' && input[i] <= '9' {
				i++
			}
			out = append(out, token{tokNumber, input[start:i]})
		case isIdentStart(rune(c)):
			start := i
			for i < len(input) && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				out = append(out, token{tokKeyword, kw})
			} else {
				out = append(out, token{tokIdent, word})
			}
		case c == '<' || c == '>' || c == '!':
			start := i
			i++
			if i < len(input) && (input[i] == '=' || c == '<' && input[i] == '>') {
				i++
			}
			out = append(out, token{tokSymbol, input[start:i]})
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '.' || c == '=' || c == '*':
			out = append(out, token{tokSymbol, input[i : i+1]})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	out = append(out, token{kind: tokEOF})
	return out, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}
