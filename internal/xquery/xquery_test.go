package xquery

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"xbench/internal/xmldom"
)

// mustRecord opens a parsed tree the way every tree reaches the
// evaluator: through its binary encoding.
func mustRecord(doc *xmldom.Node) *xmldom.Record {
	rec, err := xmldom.RecordOf(doc)
	if err != nil {
		panic(err)
	}
	return rec
}

// testColl builds a small two-document collection shaped like the
// benchmark data.
func testColl() *Collection {
	c := NewCollection()
	c.Add("catalog.xml", mustRecord(xmldom.MustParse(`<catalog>
		<item id="I1"><title>Go Databases</title><price>30</price>
			<authors>
				<author><name>Ada</name><country>Canada</country></author>
				<author><name>Bob</name><country>Canada</country></author>
			</authors>
			<publisher><name>P One</name><fax>111</fax></publisher>
		</item>
		<item id="I2"><title>XML Systems</title><price>45</price>
			<authors>
				<author><name>Eve</name><country>France</country></author>
			</authors>
			<publisher><name>P Two</name></publisher>
		</item>
		<item id="I3"><title>Query Processing</title><price>12</price>
			<authors>
				<author><name>Ada</name><country>Canada</country></author>
			</authors>
			<publisher><name>P Three</name></publisher>
		</item>
	</catalog>`)))
	c.Add("article1.xml", mustRecord(xmldom.MustParse(`<article id="a1">
		<title>On Systems</title>
		<sec id="s1"><heading>Introduction</heading><p>first words here</p></sec>
		<sec id="s2"><heading>Methods</heading><p>more data about systems</p></sec>
		<sec id="s3"><heading>Results</heading><p>empty</p></sec>
	</article>`)))
	return c
}

func run(t *testing.T, src string) Seq {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	s, err := q.Eval(testColl())
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return s
}

func strs(s Seq) []string { return SerializeSeq(s) }

func TestSimplePaths(t *testing.T) {
	if got := strs(run(t, `/catalog/item/title`)); !reflect.DeepEqual(got, []string{
		"<title>Go Databases</title>", "<title>XML Systems</title>", "<title>Query Processing</title>",
	}) {
		t.Fatalf("titles = %v", got)
	}
	if got := run(t, `//price`); len(got) != 3 {
		t.Fatalf("//price = %d items", len(got))
	}
	if got := strs(run(t, `//item/@id`)); !reflect.DeepEqual(got, []string{"I1", "I2", "I3"}) {
		t.Fatalf("ids = %v", got)
	}
	if got := strs(run(t, `//@id`)); len(got) != 7 { // 3 items + article + 3 secs
		t.Fatalf("//@id = %v", got)
	}
}

func TestWildcardAndUnknownElementPaths(t *testing.T) {
	// Q8-style: one unknown element name in the path.
	got := strs(run(t, `/catalog/*/title`))
	if len(got) != 3 {
		t.Fatalf("wildcard path = %v", got)
	}
	// Q9-style: multiple unknown steps via //.
	got = strs(run(t, `/catalog//name`))
	if len(got) != 7 { // 4 author names + 3 publisher names
		t.Fatalf("//name = %v", got)
	}
}

func TestPredicates(t *testing.T) {
	got := strs(run(t, `//item[@id = "I2"]/title`))
	if len(got) != 1 || !strings.Contains(got[0], "XML Systems") {
		t.Fatalf("exact match = %v", got)
	}
	// Positional predicate is per context node: first author of each item.
	got = strs(run(t, `//item/authors/author[1]/name`))
	if len(got) != 3 || !strings.Contains(got[0], "Ada") || !strings.Contains(got[1], "Eve") {
		t.Fatalf("first authors = %v", got)
	}
	// position() and last().
	got = strs(run(t, `//item[position() = last()]/@id`))
	if !reflect.DeepEqual(got, []string{"I3"}) {
		t.Fatalf("last item = %v", got)
	}
	// Numeric comparison inside predicate.
	got = strs(run(t, `//item[price > 25]/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I2"}) {
		t.Fatalf("price filter = %v", got)
	}
	// Chained predicates.
	got = strs(run(t, `//item[price > 10][2]/@id`))
	if !reflect.DeepEqual(got, []string{"I2"}) {
		t.Fatalf("chained predicates = %v", got)
	}
}

func TestMissingElementPredicate(t *testing.T) {
	// Q14-style: publishers without a fax.
	got := strs(run(t, `//publisher[empty(fax)]/name`))
	if len(got) != 2 {
		t.Fatalf("no-fax publishers = %v", got)
	}
	got = strs(run(t, `//publisher[not(fax)]/name`))
	if len(got) != 2 {
		t.Fatalf("not(fax) = %v", got)
	}
}

func TestFLWOR(t *testing.T) {
	got := strs(run(t, `for $i in //item where $i/price > 20 return $i/title`))
	if len(got) != 2 {
		t.Fatalf("FLWOR where = %v", got)
	}
	// let + count.
	got = strs(run(t, `let $all := //item return count($all)`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("let/count = %v", got)
	}
	// order by string.
	got = strs(run(t, `for $t in //item/title order by string($t) return string($t)`))
	if !reflect.DeepEqual(got, []string{"Go Databases", "Query Processing", "XML Systems"}) {
		t.Fatalf("order by = %v", got)
	}
	// order by numeric descending.
	got = strs(run(t, `for $i in //item order by number($i/price) descending return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I2", "I1", "I3"}) {
		t.Fatalf("numeric order = %v", got)
	}
	// positional variable.
	got = strs(run(t, `for $i at $p in //item where $p = 2 return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I2"}) {
		t.Fatalf("at $p = %v", got)
	}
	// multiple for clauses produce a product.
	got = strs(run(t, `for $a in (1, 2), $b in (10, 20) return $a + $b`))
	if !reflect.DeepEqual(got, []string{"11", "21", "12", "22"}) {
		t.Fatalf("product = %v", got)
	}
}

func TestQuantified(t *testing.T) {
	// Q7-style universal quantification.
	got := strs(run(t, `for $i in //item
		where every $a in $i/authors/author satisfies $a/country = "Canada"
		return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I3"}) {
		t.Fatalf("every = %v", got)
	}
	got = strs(run(t, `for $i in //item
		where some $a in $i/authors/author satisfies $a/name = "Eve"
		return $i/@id`))
	if !reflect.DeepEqual(got, []string{"I2"}) {
		t.Fatalf("some = %v", got)
	}
	// every over the empty sequence is true.
	got = strs(run(t, `every $x in () satisfies $x = 1`))
	if !reflect.DeepEqual(got, []string{"true"}) {
		t.Fatalf("vacuous every = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	cases := map[string]string{
		`sum(//price)`:  "87",
		`avg(//price)`:  "29",
		`min(//price)`:  "12",
		`max(//price)`:  "45",
		`count(//item)`: "3",
		`sum(())`:       "0",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
	// min/max over strings (dates).
	got := strs(run(t, `max(//item/title)`))
	if !reflect.DeepEqual(got, []string{"XML Systems"}) {
		t.Fatalf("string max = %v", got)
	}
}

func TestStringFunctions(t *testing.T) {
	cases := map[string]string{
		`contains("hello world", "lo wo")`:      "true",
		`contains("hello", "xyz")`:              "false",
		`contains-word("the quick fox", "fox")`: "true",
		`contains-word("foxes run", "fox")`:     "false",
		`starts-with("hello", "he")`:            "true",
		`string-length("abcd")`:                 "4",
		`normalize-space("  a   b  ")`:          "a b",
		`lower-case("AbC")`:                     "abc",
		`upper-case("AbC")`:                     "ABC",
		`concat("a", "b", "c")`:                 "abc",
		`substring("abcdef", 2, 3)`:             "bcd",
		`substring("abcdef", 4)`:                "def",
		`string-join(("a","b","c"), "-")`:       "a-b-c",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
}

func TestArithmeticAndComparisons(t *testing.T) {
	cases := map[string]string{
		`1 + 2 * 3`:     "7",
		`(1 + 2) * 3`:   "9",
		`10 div 4`:      "2.5",
		`10 mod 3`:      "1",
		`-5 + 2`:        "-3",
		`2 < 10`:        "true",
		`"2" < "10"`:    "false", // both numeric-parseable: numeric compare wins -> true? see below
		`"a" < "b"`:     "true",
		`1 = 1.0`:       "true",
		`count(1 to 5)`: "5",
	}
	// "2" < "10": both parse as numbers, so numeric comparison applies.
	cases[`"2" < "10"`] = "true"
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
}

func TestExistentialComparison(t *testing.T) {
	// General comparison is existential over node sequences.
	got := strs(run(t, `//item[authors/author/name = "Ada"]/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I3"}) {
		t.Fatalf("existential = %v", got)
	}
}

func TestIfExpr(t *testing.T) {
	got := strs(run(t, `if (count(//item) > 2) then "many" else "few"`))
	if !reflect.DeepEqual(got, []string{"many"}) {
		t.Fatalf("if = %v", got)
	}
	// 'if' as an element name still parses as a path step.
	c := NewCollection()
	c.Add("d.xml", mustRecord(xmldom.MustParse(`<r><if>x</if></r>`)))
	q := MustParse(`//if`)
	s, err := q.Eval(c)
	if err != nil || len(s) != 1 {
		t.Fatalf("element named if: %v %v", s, err)
	}
}

func TestElementConstructors(t *testing.T) {
	got := strs(run(t, `for $i in //item[@id = "I1"]
		return <result id="{$i/@id}">{$i/title}</result>`))
	want := `<result id="I1"><title>Go Databases</title></result>`
	if len(got) != 1 || got[0] != want {
		t.Fatalf("constructor = %v", got)
	}
	// Nested constructors with mixed literal text.
	got = strs(run(t, `<out><n>static</n><v>{1 + 1}</v></out>`))
	if !reflect.DeepEqual(got, []string{"<out><n>static</n><v>2</v></out>"}) {
		t.Fatalf("nested ctor = %v", got)
	}
	// Atomic sequence items are space-separated.
	got = strs(run(t, `<s>{(1, 2, 3)}</s>`))
	if !reflect.DeepEqual(got, []string{"<s>1 2 3</s>"}) {
		t.Fatalf("atomic spacing = %v", got)
	}
	// Constructed content is cloned, not aliased.
	got = strs(run(t, `<w>{//item[1]/title}</w>`))
	if !strings.Contains(got[0], "<title>Go Databases</title>") {
		t.Fatalf("clone = %v", got)
	}
}

func TestSiblingAxes(t *testing.T) {
	// Q4-style: the section following the Introduction.
	got := strs(run(t, `//sec[heading = "Introduction"]/following-sibling::sec[1]/heading`))
	if len(got) != 1 || !strings.Contains(got[0], "Methods") {
		t.Fatalf("following-sibling = %v", got)
	}
	got = strs(run(t, `//sec[heading = "Results"]/preceding-sibling::sec[1]/heading`))
	if len(got) != 1 || !strings.Contains(got[0], "Methods") {
		t.Fatalf("preceding-sibling = %v", got)
	}
}

func TestParentAxisAndDotDot(t *testing.T) {
	got := strs(run(t, `//heading[. = "Methods"]/../@id`))
	if !reflect.DeepEqual(got, []string{"s2"}) {
		t.Fatalf(".. = %v", got)
	}
	got = strs(run(t, `//heading[. = "Methods"]/parent::sec/@id`))
	if !reflect.DeepEqual(got, []string{"s2"}) {
		t.Fatalf("parent:: = %v", got)
	}
}

func TestDocFunction(t *testing.T) {
	got := strs(run(t, `doc("article1.xml")//heading[1]`))
	if len(got) != 1 || !strings.Contains(got[0], "Introduction") {
		t.Fatalf("doc() = %v", got)
	}
	q := MustParse(`doc("missing.xml")//x`)
	if _, err := q.Eval(testColl()); err == nil {
		t.Fatal("doc of missing document succeeded")
	}
}

func TestDistinctValues(t *testing.T) {
	got := strs(run(t, `distinct-values(//author/country)`))
	if !reflect.DeepEqual(got, []string{"Canada", "France"}) {
		t.Fatalf("distinct-values = %v", got)
	}
}

func TestExternalVariables(t *testing.T) {
	q := MustParse(`//item[@id = $X]/title`)
	s, err := q.EvalWithVars(testColl(), map[string]Seq{"X": {"I3"}})
	if err != nil || len(s) != 1 {
		t.Fatalf("external var: %v, %v", s, err)
	}
	if !strings.Contains(strs(s)[0], "Query Processing") {
		t.Fatalf("wrong item: %v", strs(s))
	}
	if _, err := q.Eval(testColl()); err == nil {
		t.Fatal("unbound variable did not error")
	}
}

func TestDocumentOrderAndDedup(t *testing.T) {
	// A union-ish path visiting the same nodes twice must dedup.
	got := strs(run(t, `count(//item/../item)`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("dedup = %v", got)
	}
	// Cross-document order follows collection order.
	got = strs(run(t, `//title`))
	if len(got) != 4 || !strings.Contains(got[3], "On Systems") {
		t.Fatalf("cross-doc order = %v", got)
	}
}

func TestTextNodeStep(t *testing.T) {
	got := strs(run(t, `//sec[@id = "s1"]/p/text()`))
	if !reflect.DeepEqual(got, []string{"first words here"}) {
		t.Fatalf("text() = %v", got)
	}
}

func TestCommentsInQuery(t *testing.T) {
	got := strs(run(t, `(: find items :) count(//item (: all of them :))`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("comments = %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`for $x in`,
		`//item[`,
		`1 +`,
		`<a>{1}</b>`,
		`let $x := 1`, // missing return
		`some $x in (1)`,
		`"unterminated`,
		`$`,
		`foo(1`,
		`(: unterminated comment`,
		`//item)`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	coll := testColl()
	bad := []string{
		`$undefined`,
		`unknownfn()`,
		`sum(//title)`, // non-numeric sum
		`1 + "abc"`,
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := q.Eval(coll); err == nil {
			t.Errorf("Eval(%q) succeeded", src)
		}
	}
}

// containsWordCases: ASCII in every case mix, the word at both ends of
// the text, '_' and digits as word characters, and non-ASCII input whose
// Unicode lower-casing changes lengths or yields an ASCII letter (the
// Kelvin sign and dotted capital I lower-case to k and i).
var containsWordCases = []struct {
	text, word string
	want       bool
}{
	{"the quick fox", "fox", true},
	{"the quick fox", "FOX", true},
	{"The Quick FoX", "fOx", true},
	{"foxes", "fox", false},
	{"end fox", "fox", true},
	{"fox start", "fox", true},
	{"fox", "fox", true},
	{"a-fox-b", "fox", true},
	{"", "fox", false},
	{"fox", "", false},
	{"", "", false},
	{"prefix foxfox", "fox", false},
	{"foxfox fox", "fox", true},
	{"punct fox.", "fox", true},
	{"fo", "fox", false},
	{"a fo", "fox", false},
	{"fox_", "fox", false},
	{"_fox", "fox", false},
	{"fox1", "fox", false},
	{"1fox", "fox", false},
	{"1 fox 2", "fox", true},
	{"x_1 is here", "X_1", true},
	{"a.b", ".", false},
	{"- . -", ".", true},
	{"naïve fox", "fox", true},
	{"naïve", "naïve", true},
	{"NAÏVE", "naïve", true},
	{"foxé", "fox", true},
	{"foxK", "fox", false},         // Kelvin sign: foxk
	{"Kfox", "fox", false},         // kfox
	{"a Kelvin b", "kelvin", true}, // Kelvin sign inside the word
	{"İstanbul", "istanbul", true},
	{"Ⱥ fox", "fox", true}, // lower-cases to a longer encoding
	{"fox ÿþ", "fox", true},
	{"ÿfox", "fox", true},
	{"café fox", "CAFÉ", true},
}

// TestContainsWord: the in-place ASCII fold, on a string and on bytes,
// answers what the lower-cased-copy definition answers, and allocates
// nothing on ASCII input.
func TestContainsWord(t *testing.T) {
	for _, c := range containsWordCases {
		if got := containsWordFold(c.text, c.word); got != c.want {
			t.Errorf("containsWordFold(%q, %q) = %v", c.text, c.word, got)
		}
		if got := ContainsWord(c.text, c.word); got != c.want {
			t.Errorf("ContainsWord(%q, %q) = %v", c.text, c.word, got)
		}
		if got := ContainsWord([]byte(c.text), c.word); got != c.want {
			t.Errorf("ContainsWord([]byte(%q), %q) = %v", c.text, c.word, got)
		}
	}
	text := strings.Repeat("Systems of record, systemic risk; ", 200) + "the SYSTEM"
	raw := []byte(text)
	allocs := testing.AllocsPerRun(20, func() {
		if !ContainsWord(text, "system") || !ContainsWord(raw, "System") || ContainsWord(raw, "absent") {
			t.Fatal("wrong answer on the long ASCII text")
		}
	})
	if allocs != 0 {
		t.Fatalf("ContainsWord on ASCII input allocates %.0f objects, want 0", allocs)
	}
}

// FuzzContainsWord holds both instantiations of ContainsWord to the
// definition on arbitrary bytes, valid UTF-8 or not (make fuzz).
func FuzzContainsWord(f *testing.F) {
	for _, c := range containsWordCases {
		f.Add(c.text, c.word)
	}
	f.Fuzz(func(t *testing.T, text, word string) {
		want := containsWordFold(text, word)
		if got := ContainsWord(text, word); got != want {
			t.Fatalf("ContainsWord(%q, %q) = %v, the definition says %v", text, word, got, want)
		}
		if got := ContainsWord([]byte(text), word); got != want {
			t.Fatalf("ContainsWord([]byte(%q), %q) = %v, the definition says %v", text, word, got, want)
		}
	})
}

// BenchmarkContainsWord: Q17's inner loop over a 4 KB ASCII paragraph,
// on a string and on bytes, where the word is absent (the whole text is
// scanned, as for most documents Q17 rejects) and where it closes the
// text.
func BenchmarkContainsWord(b *testing.B) {
	words := strings.Fields("the quick brown fox jumps over a lazy dog while Systems of record keep their Risk under control")
	var sb strings.Builder
	for i := 0; sb.Len() < 4096; i++ {
		sb.WriteString(words[(i*7)%len(words)])
		sb.WriteString(" ")
	}
	text := sb.String()
	for _, c := range []struct{ name, word string }{{"absent", "thermal"}, {"last", "quantity"}} {
		s := text
		if c.name == "last" {
			s += c.word
		}
		raw := []byte(s)
		b.Run(c.name+"/string", func(b *testing.B) {
			b.SetBytes(int64(len(s)))
			for i := 0; i < b.N; i++ {
				if ContainsWord(s, c.word) != (c.name == "last") {
					b.Fatal("wrong answer")
				}
			}
		})
		b.Run(c.name+"/bytes", func(b *testing.B) {
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				if ContainsWord(raw, c.word) != (c.name == "last") {
					b.Fatal("wrong answer")
				}
			}
		})
	}
}

func TestCollectionAccessors(t *testing.T) {
	c := testColl()
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "catalog.xml" {
		t.Fatalf("Names = %v", names)
	}
	if c.Doc("catalog.xml") == nil || c.Doc("nope") != nil {
		t.Fatal("Doc lookup wrong")
	}
}

func TestUnionOperator(t *testing.T) {
	got := strs(run(t, `count(//title | //price)`))
	if !reflect.DeepEqual(got, []string{"7"}) { // 4 titles + 3 prices
		t.Fatalf("union count = %v", got)
	}
	// Duplicates removed, document order preserved.
	got = strs(run(t, `//item[1]/title | //item[1]/title | //item[1]/price`))
	if len(got) != 2 || !strings.Contains(got[0], "title") || !strings.Contains(got[1], "price") {
		t.Fatalf("union dedup/order = %v", got)
	}
	got = strs(run(t, `count(//heading union //title)`))
	if !reflect.DeepEqual(got, []string{"7"}) { // 3 headings + 4 titles
		t.Fatalf("union keyword = %v", got)
	}
}

func TestIdivAndModErrors(t *testing.T) {
	if got := strs(run(t, `7 idiv 2`)); !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("idiv = %v", got)
	}
	for _, src := range []string{`1 idiv 0`, `1 mod 0`} {
		q := MustParse(src)
		if _, err := q.Eval(testColl()); err == nil {
			t.Errorf("%s did not error", src)
		}
	}
}

func TestMoreStringAndNumericFunctions(t *testing.T) {
	cases := map[string]string{
		`ends-with("catalog", "log")`:         "true",
		`ends-with("catalog", "dog")`:         "false",
		`substring-before("2001-05-17", "-")`: "2001",
		`substring-after("2001-05-17", "-")`:  "05-17",
		`substring-before("abc", "x")`:        "",
		`translate("2001-05-17", "-", "/")`:   "2001/05/17",
		`translate("banana", "an", "")`:       "b",
		`translate("abc", "ab", "x")`:         "xc",
		`round(2.5)`:                          "3",
		`floor(2.9)`:                          "2",
		`ceiling(2.1)`:                        "3",
		`abs(-4)`:                             "4",
		`round(number("17.4"))`:               "17",
	}
	for src, want := range cases {
		got := strs(run(t, src))
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want %s", src, got, want)
		}
	}
}

func TestUnionInPredicate(t *testing.T) {
	// Items that have either a fax-bearing publisher or the name Eve.
	got := strs(run(t, `//item[publisher/fax | authors/author[name = "Eve"]]/@id`))
	if !reflect.DeepEqual(got, []string{"I1", "I2"}) {
		t.Fatalf("union predicate = %v", got)
	}
}

func TestEvalCtorAttributeExpressions(t *testing.T) {
	got := strs(run(t, `for $i in //item[1] return <out id="pre-{$i/@id}-post" n="{count($i/authors/author)}"/>`))
	if !reflect.DeepEqual(got, []string{`<out id="pre-I1-post" n="2"/>`}) {
		t.Fatalf("attr ctor = %v", got)
	}
}

func TestFunctionArityErrors(t *testing.T) {
	coll := testColl()
	bad := []string{
		`count()`, `count(1, 2)`, `contains("a")`, `position(1)`,
		`substring("a")`, `doc()`, `not()`, `string-join(("a"))`,
	}
	for _, src := range bad {
		q, err := Parse(src)
		if err != nil {
			continue // a parse rejection is fine too
		}
		if _, err := q.Eval(coll); err == nil {
			t.Errorf("%s evaluated without error", src)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	if FormatNumber(3) != "3" || FormatNumber(2.5) != "2.5" || FormatNumber(-7) != "-7" {
		t.Fatal("FormatNumber wrong")
	}
	got := strs(run(t, `1.5 + 1.5`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("whole float rendered as %v", got)
	}
}

func TestNestedFLWORAndLetChains(t *testing.T) {
	got := strs(run(t, `for $i in //item
		let $n := count($i/authors/author)
		where $n > 1
		return concat(string($i/@id), ":", string($n))`))
	if !reflect.DeepEqual(got, []string{"I1:2"}) {
		t.Fatalf("let chain = %v", got)
	}
	// Nested FLWOR in return position.
	got = strs(run(t, `for $i in //item[@id = "I1"]
		return for $a in $i/authors/author return string($a/name)`))
	if !reflect.DeepEqual(got, []string{"Ada", "Bob"}) {
		t.Fatalf("nested flwor = %v", got)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	got := strs(run(t, `for $a in //author
		order by string($a/country), string($a/name) descending
		return concat(string($a/country), "/", string($a/name))`))
	want := []string{"Canada/Bob", "Canada/Ada", "Canada/Ada", "France/Eve"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-key order = %v", got)
	}
}

func TestOrderByEmptyKeyFirst(t *testing.T) {
	c := NewCollection()
	c.Add("d.xml", mustRecord(xmldom.MustParse(`<r><e><k>b</k></e><e/><e><k>a</k></e></r>`)))
	q := MustParse(`for $e in //e order by $e/k return count($e/k)`)
	s, err := q.Eval(c)
	if err != nil {
		t.Fatal(err)
	}
	got := SerializeSeq(s)
	if !reflect.DeepEqual(got, []string{"0", "1", "1"}) {
		t.Fatalf("empty keys should sort first: %v", got)
	}
}

func TestDeepAttributeStep(t *testing.T) {
	got := strs(run(t, `count(//sec//@id)`))
	if !reflect.DeepEqual(got, []string{"3"}) { // s1, s2, s3 via descendant-or-self
		t.Fatalf("//sec//@id = %v", got)
	}
}

func TestSelfAxis(t *testing.T) {
	got := strs(run(t, `count(//item/self::item)`))
	if !reflect.DeepEqual(got, []string{"3"}) {
		t.Fatalf("self axis = %v", got)
	}
	got = strs(run(t, `count(//item/self::other)`))
	if !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("self axis name test = %v", got)
	}
}

// numberStart only spares ParseFloat the values it would reject anyway:
// whatever ParseFloat accepts must pass it.
func TestNumberStartNeverRejectsANumber(t *testing.T) {
	for _, s := range []string{
		"0", "12", "-1", "+7", ".5", "-.5e3", "1e3", "0x1p-2", "1_000", "inf", "Inf", "+INF", "-infinity",
		"nan", "NaN", "I1", "O12", "item", "north", "in", "n", "", "-", "e5", "x1",
	} {
		_, err := strconv.ParseFloat(s, 64)
		if err == nil && !numberStart(s) {
			t.Errorf("numberStart(%q) = false, but ParseFloat accepts it", s)
		}
		got, ok := toNumber(s)
		want, werr := strconv.ParseFloat(s, 64)
		if ok != (werr == nil) || ok && got != want && !(got != got && want != want) {
			t.Errorf("toNumber(%q) = %v, %v; ParseFloat gives %v, %v", s, got, ok, want, werr)
		}
	}
}
