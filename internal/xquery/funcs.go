package xquery

import (
	"bytes"
	"fmt"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// builtin is one function of the subset. The parser binds each call to its
// entry and checks the arity; fn gets the arguments' values.
type builtin struct {
	name     string
	arity    int // exact, or the least when variadic
	variadic bool
	fn       func(c *evalCtx, a []Seq) (Seq, error)
}

// builtins is the function library: what the catalog and the queries
// pinned beside it in results/xquery_surface.txt call, and nothing more.
var builtins = []builtin{
	{"count", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{float64(len(a[0]))}, nil }},
	{"sum", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return aggregate("sum", a[0]) }},
	{"avg", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return aggregate("avg", a[0]) }},
	{"empty", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{len(a[0]) == 0}, nil }},
	{"exists", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{len(a[0]) > 0}, nil }},
	{"string", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{seqString(a[0])}, nil }},
	{"number", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { n, err := seqNumber(a[0]); return Seq{n}, err }},
	{"data", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return atomizeEach(a[0]), nil }},
	{"distinct-values", 1, false, func(_ *evalCtx, a []Seq) (Seq, error) { return distinctValues(a[0]), nil }},
	{"contains", 2, false, func(_ *evalCtx, a []Seq) (Seq, error) {
		return Seq{strings.Contains(seqString(a[0]), seqString(a[1]))}, nil
	}},
	// Uni-gram full-text search (the paper's Q17): the word occurs with
	// word boundaries, case-insensitively.
	{"contains-word", 2, false, func(_ *evalCtx, a []Seq) (Seq, error) {
		return Seq{ContainsWord(seqString(a[0]), seqString(a[1]))}, nil
	}},
	{"concat", 2, true, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{concat(a)}, nil }},
	{"string-join", 2, false, func(_ *evalCtx, a []Seq) (Seq, error) { return Seq{stringJoin(a[0], seqString(a[1]))}, nil }},
	{"doc", 1, false, doc},
}

// lookupBuiltin returns the builtin called name, or nil.
func lookupBuiltin(name string) *builtin {
	for i := range builtins {
		if builtins[i].name == name {
			return &builtins[i]
		}
	}
	return nil
}

// evalCall evaluates the arguments onto the run's argument stack and
// hands the builtin its slice of it; nested calls push above it.
func evalCall(ctx *evalCtx, c call) (Seq, error) {
	run := ctx.run
	base := len(run.args)
	for _, a := range c.args {
		s, err := evalExpr(ctx, a)
		if err != nil {
			return nil, err
		}
		run.args = append(run.args, s)
	}
	out, err := c.fn.fn(ctx, run.args[base:])
	run.args = run.args[:base]
	return out, err
}

func doc(c *evalCtx, a []Seq) (Seq, error) {
	name := seqString(a[0])
	i, ok := c.coll.byName[name]
	if !ok {
		return nil, &Error{Msg: fmt.Sprintf("doc(%q): no such document", name)}
	}
	return Seq{c.coll.root(i)}, nil
}

func seqString(s Seq) string {
	if len(s) == 0 {
		return ""
	}
	return atomize(s[0])
}

// atomizeEach returns the string value of every item.
func atomizeEach(s Seq) Seq {
	out := make(Seq, len(s))
	for i, item := range s {
		out[i] = atomize(item)
	}
	return out
}

func distinctValues(s Seq) Seq {
	seen := map[string]bool{}
	var out Seq
	for _, item := range s {
		v := atomize(item)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func stringJoin(s Seq, sep string) string {
	parts := make([]string, len(s))
	for i, item := range s {
		parts[i] = atomize(item)
	}
	return strings.Join(parts, sep)
}

func concat(a []Seq) string {
	var b strings.Builder
	for _, s := range a {
		b.WriteString(seqString(s))
	}
	return b.String()
}

// aggregate is sum() or avg() over numeric values: the sum of nothing is
// 0, the average of nothing is nothing.
func aggregate(name string, s Seq) (Seq, error) {
	if len(s) == 0 {
		if name == "sum" {
			return Seq{float64(0)}, nil
		}
		return Seq{}, nil
	}
	t := 0.0
	for _, item := range s {
		n, ok := toNumber(item)
		if !ok {
			return nil, &Error{Msg: name + "() over non-numeric values"}
		}
		t += n
	}
	if name == "avg" {
		t /= float64(len(s))
	}
	return Seq{t}, nil
}

// ContainsWord reports whether text contains word as a whole word,
// case-insensitively: CompileWord(word) applied to text once. Exported so
// relational engines run the exact same text-search semantics as the
// native engine's contains-word(), on a string or on stored bytes alike;
// one that searches many texts for a word compiles it once.
func ContainsWord[T string | []byte](text T, word string) bool {
	return matchWord(CompileWord(word), text)
}

// Word is a word compiled for whole-word, case-insensitive search: the
// byte its search looks for is chosen once, not once per text.
type Word struct {
	word   string
	k      int  // the position of the word's rarest byte
	lo, up byte // that byte in lower and upper case
	ascii  bool // the word is ASCII and not empty
	inText bool // ascii, and text can hold each byte unescaped (MatchXML)
	// The search for lo or up eight bytes at a time: a word of the text
	// OR fold, XOR pat, has a zero byte exactly where it holds lo or up.
	// For a letter fold sets the case bit, which maps up onto lo and no
	// other ASCII byte onto it; for any other byte lo is up and fold is 0.
	fold, pat uint64
}

// CompileWord prepares word for Match, MatchString and MatchXML.
func CompileWord(word string) Word {
	w := Word{word: word, ascii: word != ""}
	for i := 0; i < len(word); i++ {
		if word[i] >= utf8.RuneSelf {
			w.ascii = false
		}
	}
	w.inText = w.ascii && !strings.ContainsAny(word, `&<>'"`)
	if w.ascii {
		w.k = rarest(word)
		w.lo, w.up = lowerASCII(word[w.k]), upperASCII(word[w.k])
		if w.lo != w.up {
			w.fold = lowBits * ('a' - 'A')
		}
		w.pat = lowBits * uint64(w.lo)
	}
	return w
}

// Match reports whether text contains the word, as ContainsWord does.
func (w Word) Match(text []byte) bool { return matchWord(w, text) }

// MatchString is Match on a string.
func (w Word) MatchString(text string) bool { return matchWord(w, text) }

// MatchXML reports whether the string value of some element of the XML
// document data can contain the word: it is false only when no decoding
// of data's markup and references forms the word, so a search that skips
// the documents it is false for skips no match. That is Match on the raw
// bytes, unless data could spell the word another way: with a character
// reference, in a CDATA section, or across markup inside it. A word that
// is not ASCII or that holds a byte only a reference can spell in text,
// and a document that is not ASCII, whose bytes may lower-case to
// letters, are not filtered.
func (w Word) MatchXML(data []byte) bool {
	if !w.inText {
		return w.word != ""
	}
	// One pass, eight bytes at a time as matchWord's: a '&' or a '[' is
	// tried as a character reference or a CDATA section, each of the
	// word's rarest byte as a raw match or as a spelling across markup.
	// Such a spelling has the word's bytes or markup around that byte;
	// past that it is read only where every '<' but a leading XML
	// declaration's opens a tag — no comment, no other PI.
	tagsOnly := 0 // 1 or -1 once looked at
	at := func(p int) bool {
		c := data[p]
		if c == '&' && bytes.HasPrefix(data[p:], []byte("&#")) || c == '[' && bytes.HasPrefix(data[p:], []byte("[CDATA[")) {
			return true
		}
		if c != w.lo && c != w.up || !w.near(data, p-1, w.k-1) || !w.near(data, p+1, w.k+1) {
			return false
		}
		if wordAt(data, w.word, p-w.k) {
			return true
		}
		if tagsOnly == 0 {
			tagsOnly = -1
			if !bytes.Contains(data, []byte("<!--")) && bytes.LastIndex(data, []byte("<?")) <= 0 {
				tagsOnly = 1
			}
		}
		return tagsOnly < 0 || w.spelledAt(data, p)
	}
	i := 0
	for ; i+8 <= len(data); i += 8 {
		v := load64(data, i)
		if v&highBits != 0 {
			return true
		}
		hits := ^((v | w.fold) ^ w.pat + 0x7f*lowBits) | ^(v ^ '&'*lowBits + 0x7f*lowBits) | ^(v ^ '['*lowBits + 0x7f*lowBits)
		for hits &= highBits; hits != 0; hits &= hits - 1 {
			if at(i + bits.TrailingZeros64(hits)/8) {
				return true
			}
		}
	}
	for ; i < len(data); i++ {
		if c := data[i]; c >= utf8.RuneSelf || (c == w.lo || c == w.up || c == '&' || c == '[') && at(i) {
			return true
		}
	}
	return false
}

// near reports whether data[i] can stand beside a spelling of the word as
// its byte m: it is that byte, markup, or no byte of the word is wanted.
func (w Word) near(data []byte, i, m int) bool {
	return m < 0 || m == len(w.word) || i < 0 || i == len(data) ||
		data[i] == '<' || data[i] == '>' || lowerASCII(data[i]) == lowerASCII(w.word[m])
}

// spelledAt reports whether data[p], the word's rarest byte in a document
// whose every '<' opens a tag, is that byte of the word spelled in text
// across tags, as a whole word. The text before p runs back to the end of
// the tag the last '<' before it opens.
func (w Word) spelledAt(data []byte, p int) bool {
	open := bytes.LastIndexByte(data[:p], '<')
	start := skipTags(data, max(open, 0))
	if start > p {
		return false // p is in a tag
	}
	i := p
	for m := w.k - 1; m >= 0; m-- {
		for i == start { // the text is used up: step back over the tag before it
			if open < 0 {
				return false
			}
			i, open = open, bytes.LastIndexByte(data[:open], '<')
			start = min(skipTags(data, max(open, 0)), i) // the run of tags may reach i
		}
		if i--; lowerASCII(data[i]) != lowerASCII(w.word[m]) {
			return false
		}
	}
	if i > start && isWordChar(data[i-1]) {
		return false
	}
	j := p + 1
	for m := w.k + 1; m < len(w.word); m, j = m+1, j+1 {
		if j = skipTags(data, j); j == len(data) || lowerASCII(data[j]) != lowerASCII(w.word[m]) {
			return false
		}
	}
	return j == len(data) || data[j] == '<' || !isWordChar(data[j])
}

// skipTags returns the end of the run of tags from data[i] on, each ending
// at the first '>' outside its quoted values; where data[i] is no '<' the
// run is empty.
func skipTags(data []byte, i int) int {
	for i < len(data) && data[i] == '<' {
		for i++; ; {
			k := bytes.IndexByte(data[i:], '>')
			if k < 0 {
				return len(data)
			}
			q := bytes.IndexAny(data[i:i+k], `"'`)
			if q < 0 {
				i += k + 1
				break
			}
			e := bytes.IndexByte(data[i+q+1:], data[i+q])
			if e < 0 {
				return len(data)
			}
			i += q + 1 + e + 1
		}
	}
	return i
}

// matchWord folds ASCII in place with no copy of the text, eight bytes at
// a time: a block of eight ASCII bytes that holds neither case of the
// word's rarest letter is passed over whole, and each byte that is one
// names a candidate start, verified where it lies. A word that is not
// ASCII, or the first non-ASCII byte of the text met before the answer is
// known, hands the whole question to containsWordFold, because Unicode
// lower-casing may change lengths and turn a letter into an ASCII one
// (the Kelvin sign), so only that code can say what it answers.
func matchWord[T string | []byte](w Word, text T) bool {
	if !w.ascii {
		return w.word != "" && containsWordFold(string(text), w.word)
	}
	word, k, lo, up, fold, pat := w.word, w.k, w.lo, w.up, w.fold, w.pat
	// wordAt accepts only a match that, with the byte after it, lies before
	// the first non-ASCII byte, so every candidate that can answer true is
	// met before the loops reach that byte.
	i := 0
	for ; i+8 <= len(text); i += 8 {
		v := load64(text, i)
		if v&highBits != 0 {
			break // the byte loop below finds the non-ASCII one
		}
		// Adding 0x7f to an ASCII byte sets its high bit unless it is 0,
		// and carries into no neighbour: hits has the high bit set
		// exactly in the bytes equal to lo or up.
		hits := ^(((v | fold) ^ pat) + 0x7f*lowBits) & highBits
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
