package textgen

import (
	"strconv"
	"strings"

	"xbench/internal/stats"
)

// Text generates prose with Zipf-distributed word frequencies.
type Text struct {
	r    *stats.RNG
	zipf *stats.Zipf
}

// zipfCache shares the (expensive to build) CDF between Text instances;
// the CDF depends only on the pool size, which is fixed.
var zipfCache = stats.NewZipf(PoolSize(), 1.05)

// NewText returns a prose generator over r.
func NewText(r *stats.RNG) *Text {
	return &Text{r: r, zipf: zipfCache}
}

// Word draws one word, frequency-skewed.
func (t *Text) Word() string {
	return WordAt(stats.DrawInt(t.r, t.zipf) - 1)
}

// Words draws n space-separated words.
func (t *Text) Words(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Word())
	}
	return b.String()
}

// Sentence draws a capitalized sentence of lo..hi words ending in a period.
func (t *Text) Sentence(lo, hi int) string {
	n := t.r.IntRange(lo, hi)
	s := t.Words(n)
	if s == "" {
		return ""
	}
	return strings.ToUpper(s[:1]) + s[1:] + "."
}

// Paragraph draws nSentences sentences joined with spaces.
func (t *Text) Paragraph(nSentences int) string {
	parts := make([]string, nSentences)
	for i := range parts {
		parts[i] = t.Sentence(5, 18)
	}
	return strings.Join(parts, " ")
}

// Phrase returns a fixed n-gram that is guaranteed to occur in generated
// prose with non-trivial probability; used to bind Q18's phrase parameter.
func Phrase() string { return "of the" }

// Name pools for authors, customers and publishers.
var firstNames = []string{
	"Ada", "Alan", "Barbara", "Carl", "Diana", "Edgar", "Frances", "Grace",
	"Henri", "Ingrid", "Jim", "Kurt", "Leslie", "Maurice", "Niklaus",
	"Olga", "Peter", "Quentin", "Rosa", "Sergei", "Tamer", "Ursula",
	"Victor", "Wanda", "Xavier", "Yuri", "Zelda", "Benjamin", "Nitin",
	"Donald", "Edsger", "Fernando", "Hector", "Irene", "Jeffrey", "Ken",
}
var lastNames = []string{
	"Adams", "Baker", "Codd", "Dijkstra", "Engel", "Floyd", "Gray",
	"Hoare", "Iverson", "Jones", "Knuth", "Lamport", "McCarthy", "Naur",
	"Olsen", "Perlis", "Quinn", "Ritchie", "Stone", "Turing", "Ullman",
	"Valiant", "Wirth", "Xu", "Yao", "Zadeh", "Ozsu", "Keenleyside",
	"Barbosa", "Mendelzon", "Chamberlin", "Fankhauser", "Robie", "Schmidt",
}

// FirstName returns a deterministic first name for index i.
func FirstName(i int) string { return firstNames[abs(i)%len(firstNames)] }

// LastName returns a deterministic last name for index i.
func LastName(i int) string { return lastNames[abs(i)%len(lastNames)] }

// FullName returns "First Last" for index i, cycling through combinations.
func FullName(i int) string {
	i = abs(i)
	return FirstName(i) + " " + LastName(i/len(firstNames))
}

// countries is the COUNTRY table domain (TPC-W uses 92 countries; a
// representative subset keeps Q7's universal quantification selective).
var countries = []string{
	"Canada", "United States", "United Kingdom", "Germany", "France",
	"Japan", "Australia", "Brazil", "India", "China", "Netherlands",
	"Switzerland", "Sweden", "Norway", "Italy", "Spain", "Mexico",
	"South Korea", "Singapore", "New Zealand", "Ireland", "Austria",
	"Belgium", "Denmark", "Finland",
}

// CountryCount returns the number of countries in the domain.
func CountryCount() int { return len(countries) }

// Country returns the i-th country name.
func Country(i int) string { return countries[abs(i)%len(countries)] }

// Date renders a deterministic ISO date. day is an absolute day index that
// is mapped into the window 1995-01-01 .. 2003-12-30 used by the TPC-W
// style temporal predicates. Within each synthetic 360-day year the mapping
// is monotone, so range predicates behave intuitively.
func Date(day int) string {
	day = abs(day) % (9 * 360) // nine 360-day years keep arithmetic simple
	year := 1995 + day/360
	rem := day % 360
	b := make([]byte, 0, len("2003-12-30"))
	b = AppendInt(b, year, 4)
	b = AppendInt(append(b, '-'), rem/30+1, 2)
	b = AppendInt(append(b, '-'), rem%30+1, 2)
	return string(b)
}

// Phone renders a deterministic phone number for index i.
func Phone(i int) string {
	i = abs(i)
	b := make([]byte, 0, len("+1-200-100-0000"))
	b = AppendInt(append(b, "+1-"...), 200+i%700, 3)
	b = AppendInt(append(b, '-'), 100+(i/7)%900, 3)
	b = AppendInt(append(b, '-'), i%10000, 4)
	return string(b)
}

// Email renders a deterministic e-mail address from a name.
func Email(name string, i int) string {
	user := strings.ToLower(strings.ReplaceAll(name, " ", "."))
	b := make([]byte, 0, len(user)+len("00@example.org"))
	b = strconv.AppendInt(append(b, user...), int64(abs(i)%100), 10)
	return string(append(b, "@example.org"...))
}

// AppendInt appends n ≥ 0 in decimal, zero-padded to width digits — what
// fmt's "%0<width>d" prints — and returns the extended buffer.
func AppendInt(b []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for range width - len(d) {
		b = append(b, '0')
	}
	return append(b, d...)
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}
