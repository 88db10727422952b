package textgen

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"xbench/internal/stats"
)

func TestWordAt(t *testing.T) {
	if WordAt(0) != "the" {
		t.Fatalf("WordAt(0) = %q", WordAt(0))
	}
	if WordAt(-5) != WordAt(5) {
		t.Fatal("negative index not mirrored")
	}
	if WordAt(PoolSize()) != WordAt(0) {
		t.Fatal("index does not wrap at pool size")
	}
}

func TestHeadwordDeterministicAndDistinct(t *testing.T) {
	if Headword(17) != Headword(17) {
		t.Fatal("Headword not deterministic")
	}
	seen := map[string]int{}
	for i := 0; i < 20000; i++ {
		w := Headword(i)
		if w == "" {
			t.Fatalf("empty headword at %d", i)
		}
		if prev, dup := seen[w]; dup {
			t.Fatalf("headword collision: %d and %d both %q", prev, i, w)
		}
		seen[w] = i
	}
}

func TestHeadwordProperty(t *testing.T) {
	f := func(i uint16) bool {
		w := Headword(int(i))
		return w != "" && strings.ToLower(w) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTextProse(t *testing.T) {
	tx := NewText(stats.NewRNG(1))
	s := tx.Sentence(5, 9)
	if !strings.HasSuffix(s, ".") {
		t.Fatalf("sentence %q lacks period", s)
	}
	words := strings.Fields(strings.TrimSuffix(s, "."))
	if len(words) < 5 || len(words) > 9 {
		t.Fatalf("sentence has %d words", len(words))
	}
	if s[0] < 'A' || s[0] > 'Z' {
		t.Fatalf("sentence %q not capitalized", s)
	}

	p := tx.Paragraph(3)
	if strings.Count(p, ".") < 3 {
		t.Fatalf("paragraph %q has fewer than 3 sentences", p)
	}
}

func TestTextZipfSkew(t *testing.T) {
	tx := NewText(stats.NewRNG(2))
	counts := map[string]int{}
	for i := 0; i < 20000; i++ {
		counts[tx.Word()]++
	}
	if counts["the"] < counts[WordAt(PoolSize()-1)] {
		t.Fatal("word frequency not skewed toward pool head")
	}
	if len(counts) < 100 {
		t.Fatalf("only %d distinct words drawn", len(counts))
	}
}

func TestPhraseOccursInProse(t *testing.T) {
	tx := NewText(stats.NewRNG(3))
	found := false
	for i := 0; i < 50 && !found; i++ {
		found = strings.Contains(tx.Paragraph(5), Phrase())
	}
	if !found {
		t.Fatalf("phrase %q never appeared in 50 paragraphs", Phrase())
	}
}

func TestNames(t *testing.T) {
	if FirstName(3) != FirstName(3) || LastName(4) != LastName(4) {
		t.Fatal("names not deterministic")
	}
	if FullName(10) == FullName(11) {
		t.Fatal("adjacent full names identical")
	}
	if !strings.Contains(FullName(0), " ") {
		t.Fatalf("FullName(0) = %q lacks space", FullName(0))
	}
}

func TestCountry(t *testing.T) {
	if CountryCount() < 10 {
		t.Fatalf("too few countries: %d", CountryCount())
	}
	if Country(0) == "" || Country(0) != Country(CountryCount()) {
		t.Fatal("Country not cyclic/deterministic")
	}
}

func TestDateFormat(t *testing.T) {
	for _, day := range []int{0, 1, 359, 360, 1000, 9*360 - 1, 9 * 360} {
		d := Date(day)
		if len(d) != 10 || d[4] != '-' || d[7] != '-' {
			t.Fatalf("Date(%d) = %q not ISO", day, d)
		}
		if d < "1995-01-01" || d > "2003-12-30" {
			t.Fatalf("Date(%d) = %q outside window", day, d)
		}
	}
	f := func(day int32) bool {
		d := Date(int(day))
		return len(d) == 10 && d >= "1995-01-01" && d <= "2003-12-30"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDateMonotoneWithinYear(t *testing.T) {
	// Dates within a single synthetic year must be non-decreasing so date
	// range predicates behave intuitively.
	prev := Date(0)
	for day := 1; day < 360; day++ {
		d := Date(day)
		if d < prev {
			t.Fatalf("Date(%d)=%q < Date(%d)=%q", day, d, day-1, prev)
		}
		prev = d
	}
}

func TestPhoneEmail(t *testing.T) {
	if Phone(5) != Phone(5) {
		t.Fatal("Phone not deterministic")
	}
	if !strings.HasPrefix(Phone(5), "+1-") {
		t.Fatalf("Phone(5) = %q", Phone(5))
	}
	e := Email("Ada Adams", 7)
	if !strings.Contains(e, "@example.org") || !strings.Contains(e, "ada.adams") {
		t.Fatalf("Email = %q", e)
	}
}

// TestFormattersMatchFmt: Date, Phone, Email and AppendInt print what the
// fmt verbs they replace print.
func TestFormattersMatchFmt(t *testing.T) {
	for i := -20000; i <= 20000; i += 7 {
		day := abs(i) % (9 * 360)
		want := fmt.Sprintf("%04d-%02d-%02d", 1995+day/360, day%360/30+1, day%360%30+1)
		if got := Date(i); got != want {
			t.Fatalf("Date(%d) = %q, fmt prints %q", i, got, want)
		}
		a := abs(i)
		if got, want := Phone(i), fmt.Sprintf("+1-%03d-%03d-%04d", 200+a%700, 100+(a/7)%900, a%10000); got != want {
			t.Fatalf("Phone(%d) = %q, fmt prints %q", i, got, want)
		}
		if got, want := Email("Ann Lee", i), fmt.Sprintf("ann.lee%d@example.org", a%100); got != want {
			t.Fatalf("Email(%d) = %q, fmt prints %q", i, got, want)
		}
		for width := 0; width <= 8; width++ {
			if got, want := string(AppendInt([]byte("x"), a, width)), fmt.Sprintf("x%0*d", width, a); got != want {
				t.Fatalf("AppendInt(%d, %d) = %q, fmt prints %q", a, width, got, want)
			}
		}
	}
}
