package gen

import (
	"strconv"

	"xbench/internal/core"
	"xbench/internal/stats"
	"xbench/internal/textgen"
	"xbench/internal/toxgene"
	"xbench/internal/xmldom"
)

// Quotation locations form a small domain so Q3's grouping by quotation
// location produces a meaningful aggregate.
var quoteLocations = []string{
	"London", "Paris", "Boston", "Oxford", "Cambridge", "Edinburgh",
	"Dublin", "New York", "Toronto", "Chicago", "Philadelphia", "Leiden",
}

// QuoteLocations exposes the domain for tests and workload selectivity
// calculations.
func QuoteLocations() []string { return append([]string(nil), quoteLocations...) }

var posValues = []string{"n.", "v.", "adj.", "adv.", "prep.", "conj."}

// genDictionary produces the TC/SD database: a single dictionary.xml with
// entryNum word entries (paper: entry_num, default 7333 at 100 MB).
func (c Config) genDictionary(size core.Size, entryNum int) (*core.Database, error) {
	tmpl := dictionaryTmpl(entryNum)
	data, err := toxgene.Document(tmpl, c.Seed^0xD1C7)
	if err != nil {
		return nil, err
	}
	return &core.Database{
		Class: core.TCSD,
		Size:  size,
		Docs:  []core.Doc{{Name: "dictionary.xml", Data: data}},
	}, nil
}

// entryIdx returns the occurrence index of the enclosing entry element
// (template depth 1: dictionary=0, entry=1).
func entryIdx(ctx *toxgene.Ctx) int { return ctx.IndexAt(1) }

func dictionaryTmpl(entryNum int) *toxgene.Tmpl {
	n := float64(entryNum)
	prose := func(ctx *toxgene.Ctx) *textgen.Text { return textgen.NewText(ctx.R) }

	crTmpl := func(count stats.Dist, prob float64) *toxgene.Tmpl {
		return &toxgene.Tmpl{
			Name:  "cr",
			Count: count,
			Prob:  prob,
			Attrs: []toxgene.AttrTmpl{{
				Name: "target",
				Value: func(ctx *toxgene.Ctx) string {
					return "e" + strconv.Itoa(1+ctx.R.Intn(entryNum))
				},
			}},
			Content: func(ctx *toxgene.Ctx) string {
				return textgen.Headword(ctx.R.Intn(entryNum))
			},
		}
	}

	qt := &toxgene.Tmpl{
		Name: "qt", // mixed content: text, inline <i>/<b>, trailing text
		Content: func(ctx *toxgene.Ctx) string {
			return prose(ctx).Sentence(6, 16) + " "
		},
		Children: []*toxgene.Tmpl{
			{
				Name:  "i",
				Count: stats.Uniform{Lo: 0, Hi: 1.4},
				Content: func(ctx *toxgene.Ctx) string {
					return prose(ctx).Words(1 + ctx.R.Intn(2))
				},
			},
			{
				Name:  "b",
				Count: stats.Uniform{Lo: 0, Hi: 1.2},
				Content: func(ctx *toxgene.Ctx) string {
					return prose(ctx).Words(1)
				},
			},
		},
		Tail: func(ctx *toxgene.Ctx) string {
			return " " + prose(ctx).Sentence(4, 12)
		},
	}

	q := &toxgene.Tmpl{
		Name:  "q",
		Count: stats.Uniform{Lo: 1, Hi: 2.4},
		Children: []*toxgene.Tmpl{
			{Name: "qd", Content: func(ctx *toxgene.Ctx) string {
				return textgen.Date(ctx.R.Intn(9 * 360))
			}},
			{Name: "a", Content: func(ctx *toxgene.Ctx) string {
				return textgen.FullName(ctx.R.Intn(60))
			}},
			{Name: "loc", Content: func(ctx *toxgene.Ctx) string {
				return quoteLocations[ctx.R.Intn(len(quoteLocations))]
			}},
			qt,
		},
	}

	sense := &toxgene.Tmpl{
		Name:  "sense",
		Count: stats.Exponential{Lambda: 0.8, Min: 1, Max: 6},
		Children: []*toxgene.Tmpl{
			{Name: "def", Content: func(ctx *toxgene.Ctx) string {
				return prose(ctx).Paragraph(1 + ctx.R.Intn(2))
			}},
			crTmpl(stats.Uniform{Lo: 0, Hi: 1.3}, 0),
			{
				Name:     "qp",
				Count:    stats.Exponential{Lambda: 1.1, Min: 1, Max: 4},
				Children: []*toxgene.Tmpl{q},
			},
		},
	}

	entry := &toxgene.Tmpl{
		Name:  "entry",
		Count: stats.Uniform{Lo: n, Hi: n}, // exactly entryNum entries
		Attrs: []toxgene.AttrTmpl{{
			Name: "id",
			Value: func(ctx *toxgene.Ctx) string {
				return "e" + strconv.Itoa(entryIdx(ctx)+1)
			},
		}},
		Children: []*toxgene.Tmpl{
			{Name: "hw", Content: func(ctx *toxgene.Ctx) string {
				return textgen.Headword(entryIdx(ctx))
			}},
			{Name: "pr", Prob: 0.6, Content: func(ctx *toxgene.Ctx) string {
				return "/" + textgen.Syllable(ctx.R.Intn(2250)) + "'" +
					textgen.Syllable(ctx.R.Intn(2250)) + "/"
			}},
			{Name: "pos", Content: func(ctx *toxgene.Ctx) string {
				return posValues[ctx.R.Intn(len(posValues))]
			}},
			{
				Name: "etym",
				Prob: 0.5,
				Content: func(ctx *toxgene.Ctx) string {
					return "From " + prose(ctx).Words(2+ctx.R.Intn(3)) + " "
				},
				Children: []*toxgene.Tmpl{crTmpl(stats.Uniform{Lo: 0, Hi: 1.2}, 0)},
				Tail: func(ctx *toxgene.Ctx) string {
					return ", " + prose(ctx).Words(1+ctx.R.Intn(3)) + "."
				},
			},
			sense,
		},
	}

	return &toxgene.Tmpl{Name: "dictionary", Children: []*toxgene.Tmpl{entry}}
}

// DictionaryEntryCount parses a generated dictionary document and counts
// its entries; used by size-calibration tests.
func DictionaryEntryCount(data []byte) (int, error) {
	var rec xmldom.Record
	if err := xmldom.ParseRecord(&rec, data); err != nil {
		return 0, err
	}
	n := 0
	for e := rec.Element().Child("entry"); !e.IsZero(); e = e.Sibling("entry") {
		n++
	}
	return n, nil
}
