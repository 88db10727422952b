package xquery

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unicode/utf8"
)

func evalCall(ctx *evalCtx, c call) (Seq, error) {
	argc := func(n int) error {
		if len(c.args) != n {
			return &Error{Msg: fmt.Sprintf("%s() expects %d argument(s), got %d", c.name, n, len(c.args))}
		}
		return nil
	}
	evalArg := func(i int) (Seq, error) { return evalExpr(ctx, c.args[i]) }

	switch c.name {
	case "position":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Seq{float64(ctx.pos)}, nil
	case "last":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Seq{float64(ctx.size)}, nil
	case "collection":
		return ctx.coll.roots(), nil
	case "doc", "document":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		name := seqString(a)
		i, ok := ctx.coll.byName[name]
		if !ok {
			return nil, &Error{Msg: fmt.Sprintf("doc(%q): no such document", name)}
		}
		return Seq{ctx.coll.root(i)}, nil
	case "count":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{float64(len(a))}, nil
	case "sum", "avg", "min", "max":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return aggregate(c.name, a)
	case "empty":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{len(a) == 0}, nil
	case "exists":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{len(a) > 0}, nil
	case "not":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{!ebv(a)}, nil
	case "boolean":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{ebv(a)}, nil
	case "string":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{seqString(a)}, nil
	case "number":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		n, err := seqNumber(a)
		if err != nil {
			return nil, err
		}
		return Seq{n}, nil
	case "data":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		out := make(Seq, len(a))
		for i, item := range a {
			out[i] = atomize(item)
		}
		return out, nil
	case "name":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return Seq{""}, nil
		}
		if n, ok := a[0].(Node); ok {
			return Seq{string(n.ref().Name())}, nil
		}
		return Seq{""}, nil
	case "distinct-values":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out Seq
		for _, item := range a {
			v := atomize(item)
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return out, nil
	case "contains":
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		return Seq{strings.Contains(seqString(a), seqString(b))}, nil
	case "contains-word":
		// Uni-gram full-text search (the paper's Q17): true when the word
		// occurs with word boundaries, case-insensitively.
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		return Seq{ContainsWord(seqString(a), seqString(b))}, nil
	case "starts-with":
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		return Seq{strings.HasPrefix(seqString(a), seqString(b))}, nil
	case "string-length":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{float64(len(seqString(a)))}, nil
	case "normalize-space":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{strings.Join(strings.Fields(seqString(a)), " ")}, nil
	case "lower-case":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{strings.ToLower(seqString(a))}, nil
	case "upper-case":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		return Seq{strings.ToUpper(seqString(a))}, nil
	case "concat":
		var b strings.Builder
		for i := range c.args {
			a, err := evalArg(i)
			if err != nil {
				return nil, err
			}
			b.WriteString(seqString(a))
		}
		return Seq{b.String()}, nil
	case "string-join":
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		sep, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		parts := make([]string, len(a))
		for i, item := range a {
			parts[i] = atomize(item)
		}
		return Seq{strings.Join(parts, seqString(sep))}, nil
	case "substring":
		if len(c.args) != 2 && len(c.args) != 3 {
			return nil, &Error{Msg: "substring() expects 2 or 3 arguments"}
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		s := seqString(a)
		st, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		start, err := seqNumber(st)
		if err != nil {
			return nil, err
		}
		from := int(start) - 1
		if from < 0 {
			from = 0
		}
		if from > len(s) {
			from = len(s)
		}
		to := len(s)
		if len(c.args) == 3 {
			ln, err := evalArg(2)
			if err != nil {
				return nil, err
			}
			n, err := seqNumber(ln)
			if err != nil {
				return nil, err
			}
			to = from + int(n)
			if to > len(s) {
				to = len(s)
			}
			if to < from {
				to = from
			}
		}
		return Seq{s[from:to]}, nil
	case "ends-with":
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		return Seq{strings.HasSuffix(seqString(a), seqString(b))}, nil
	case "substring-before", "substring-after":
		if err := argc(2); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		b, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		s, sub := seqString(a), seqString(b)
		i := strings.Index(s, sub)
		if i < 0 {
			return Seq{""}, nil
		}
		if c.name == "substring-before" {
			return Seq{s[:i]}, nil
		}
		return Seq{s[i+len(sub):]}, nil
	case "translate":
		if err := argc(3); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		from, err := evalArg(1)
		if err != nil {
			return nil, err
		}
		to, err := evalArg(2)
		if err != nil {
			return nil, err
		}
		return Seq{translate(seqString(a), seqString(from), seqString(to))}, nil
	case "round", "floor", "ceiling", "abs":
		if err := argc(1); err != nil {
			return nil, err
		}
		a, err := evalArg(0)
		if err != nil {
			return nil, err
		}
		if len(a) == 0 {
			return Seq{}, nil
		}
		n, err := seqNumber(a)
		if err != nil {
			return nil, err
		}
		switch c.name {
		case "round":
			return Seq{math.Round(n)}, nil
		case "floor":
			return Seq{math.Floor(n)}, nil
		case "ceiling":
			return Seq{math.Ceil(n)}, nil
		case "abs":
			return Seq{math.Abs(n)}, nil
		}
	case "true":
		return Seq{true}, nil
	case "false":
		return Seq{false}, nil
	}
	return nil, &Error{Msg: fmt.Sprintf("unknown function %s()", c.name)}
}

// translate implements fn:translate over runes: characters in from map to
// the corresponding character in to; from-characters without a
// counterpart are removed.
func translate(s, from, to string) string {
	fromRunes := []rune(from)
	toRunes := []rune(to)
	mapping := make(map[rune]rune, len(fromRunes))
	remove := make(map[rune]bool)
	for i, r := range fromRunes {
		if _, dup := mapping[r]; dup || remove[r] {
			continue // first occurrence wins
		}
		if i < len(toRunes) {
			mapping[r] = toRunes[i]
		} else {
			remove[r] = true
		}
	}
	var b strings.Builder
	for _, r := range s {
		if remove[r] {
			continue
		}
		if m, ok := mapping[r]; ok {
			b.WriteRune(m)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func seqString(s Seq) string {
	if len(s) == 0 {
		return ""
	}
	return atomize(s[0])
}

func aggregate(name string, s Seq) (Seq, error) {
	if len(s) == 0 {
		if name == "sum" {
			return Seq{float64(0)}, nil
		}
		return Seq{}, nil
	}
	nums := make([]float64, 0, len(s))
	allNum := true
	for _, item := range s {
		n, ok := toNumber(item)
		if !ok {
			allNum = false
			break
		}
		nums = append(nums, n)
	}
	if !allNum {
		// String min/max (e.g. over dates); sum/avg require numbers.
		if name != "min" && name != "max" {
			return nil, &Error{Msg: name + "() over non-numeric values"}
		}
		best := atomize(s[0])
		for _, item := range s[1:] {
			v := atomize(item)
			if (name == "min" && v < best) || (name == "max" && v > best) {
				best = v
			}
		}
		return Seq{best}, nil
	}
	switch name {
	case "sum":
		t := 0.0
		for _, n := range nums {
			t += n
		}
		return Seq{t}, nil
	case "avg":
		t := 0.0
		for _, n := range nums {
			t += n
		}
		return Seq{t / float64(len(nums))}, nil
	case "min":
		m := nums[0]
		for _, n := range nums[1:] {
			if n < m {
				m = n
			}
		}
		return Seq{m}, nil
	case "max":
		m := nums[0]
		for _, n := range nums[1:] {
			if n > m {
				m = n
			}
		}
		return Seq{m}, nil
	}
	return nil, &Error{Msg: "unknown aggregate " + name}
}

// ContainsWord reports whether text contains word as a whole word,
// case-insensitively. Exported so relational engines run the exact same
// text-search semantics as the native engine's contains-word(), on a
// string or on stored bytes alike. ASCII is folded in place with no copy
// of the text, eight bytes at a time: a block of eight ASCII bytes that
// holds neither case of the word's rarest letter is passed over whole,
// and each byte that is one names a candidate start, verified where it
// lies. The first non-ASCII byte met before the answer
// is known hands the whole question to containsWordFold, because Unicode
// lower-casing may change lengths and turn a letter into an ASCII one
// (the Kelvin sign), so only that code can say what it answers.
func ContainsWord[T string | []byte](text T, word string) bool {
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			return containsWordFold(string(text), word)
		}
	}
	if word == "" {
		return false
	}
	k := rarest(word)
	lo, up := lowerASCII(word[k]), upperASCII(word[k])
	// wordAt accepts only a match that, with the byte after it, lies before
	// the first non-ASCII byte, so every candidate that can answer true is
	// met before the loops reach that byte.
	i := 0
	for ; i+8 <= len(text); i += 8 {
		w := load64(text, i)
		if w&highBits != 0 {
			break // the byte loop below finds the non-ASCII one
		}
		// Adding 0x7f to an ASCII byte sets its high bit unless it is 0,
		// and carries into no neighbour: a and b have the high bit clear
		// exactly in the bytes equal to lo and to up.
		a := (w ^ lowBits*uint64(lo)) + 0x7f*lowBits
		b := (w ^ lowBits*uint64(up)) + 0x7f*lowBits
		hits := ^(a & b) & highBits
		for ; hits != 0; hits &= hits - 1 {
			if wordAt(text, word, i+bits.TrailingZeros64(hits)/8-k) {
				return true
			}
		}
	}
	for ; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf {
			return containsWordFold(string(text), word)
		}
		if (text[i] == lo || text[i] == up) && wordAt(text, word, i-k) {
			return true
		}
	}
	return false
}

const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// load64 reads text[i:i+8] as a little-endian word: byte i+n is bits
// 8n to 8n+7.
func load64[T string | []byte](text T, i int) uint64 {
	b := text[i : i+8]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// wordAt reports whether word, ASCII, occurs case-insensitively at text[s:]
// as a whole word followed by an ASCII byte or the end of text. Every byte
// before s must be ASCII.
func wordAt[T string | []byte](text T, word string, s int) bool {
	j := s + len(word)
	if s < 0 || j > len(text) || s > 0 && isWordChar(text[s-1]) {
		return false
	}
	for n := 0; n < len(word); n++ {
		if lowerASCII(text[s+n]) != lowerASCII(word[n]) {
			return false
		}
	}
	return j == len(text) || text[j] < utf8.RuneSelf && !isWordChar(text[j])
}

// byFrequency lists the bytes of English prose from the most common to the
// least; a byte not in it is rarer than all of them.
const byFrequency = " etaoinsrhldcumfpgwybvkxjqz"

// rarest returns the position of word's rarest byte, case folded: the one
// whose occurrences in text are the fewest candidates to verify.
func rarest(word string) int {
	best, rank := 0, -1
	for i := 0; i < len(word); i++ {
		r := strings.IndexByte(byFrequency, lowerASCII(word[i]))
		if r < 0 {
			r = len(byFrequency)
		}
		if r > rank {
			best, rank = i, r
		}
	}
	return best
}

func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

func upperASCII(c byte) byte {
	if 'a' <= c && c <= 'z' {
		c -= 'a' - 'A'
	}
	return c
}

// containsWordFold is ContainsWord over lower-cased copies of both
// arguments: the definition, and the path of any non-ASCII input.
func containsWordFold(text, word string) bool {
	if word == "" {
		return false
	}
	t := strings.ToLower(text)
	w := strings.ToLower(word)
	for off := 0; ; {
		i := strings.Index(t[off:], w)
		if i < 0 {
			return false
		}
		i += off
		beforeOK := i == 0 || !isWordChar(t[i-1])
		j := i + len(w)
		afterOK := j >= len(t) || !isWordChar(t[j])
		if beforeOK && afterOK {
			return true
		}
		off = i + 1
	}
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
