package thingtalk

import (
	"fmt"
	"strings"
)

// The lexer turns program text into the same token stream the encoder
// produces, so parsing NN output is just Tokenize + parse. Quoted strings
// are split into a `"` token, one token per word, and a closing `"`, which
// is exactly the copyable representation used in training data.

// Tokenize splits program text into canonical tokens.
func Tokenize(src string) ([]string, error) {
	var toks []string
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '"':
			// Quoted string: emit quote, inner words, quote.
			j := strings.IndexByte(src[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("thingtalk: unterminated string at offset %d", i)
			}
			inner := src[i+1 : i+1+j]
			toks = append(toks, `"`)
			toks = append(toks, strings.Fields(inner)...)
			toks = append(toks, `"`)
			i += j + 2
		case strings.IndexByte("(){},;", c) >= 0:
			toks = append(toks, string(c))
			i++
		case c == '=' || c == '>' || c == '<' || c == '!' || c == '+':
			j := i
			for j < n && strings.IndexByte("=><!+", src[j]) >= 0 {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			j := i
			for j < n && !isTokenBreak(src[j]) {
				j++
			}
			if j == i {
				return nil, fmt.Errorf("thingtalk: unexpected character %q at offset %d", c, i)
			}
			toks = append(toks, src[i:j])
			i = j
		}
	}
	return toks, nil
}

func isTokenBreak(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\r', '"', '{', '}', ';', ',':
		return true
	}
	// '(' and ')' break tokens unless inside a type annotation like
	// Entity(tt:username) — the tokenizer cannot see that context, so
	// identifiers are allowed to contain balanced parens. We approximate by
	// treating '(' as part of the token when the token so far looks like a
	// parameter/type annotation; the practical rule that works for the whole
	// language is: '(' and ')' break only when the current token is empty.
	return false
}

// Because '(' inside param:...:Entity(tt:username) must not break the token,
// tokenization of parentheses needs one more rule: a '(' or ')' standing
// alone (preceded by whitespace) is punctuation; attached to an identifier it
// belongs to the identifier. The implementation above achieves this because
// the punctuation case only triggers at token start.
