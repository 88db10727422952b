package gen

import (
	"fmt"
	"strconv"

	"xbench/internal/core"
	"xbench/internal/stats"
	"xbench/internal/textgen"
	"xbench/internal/toxgene"
)

var genres = []string{"news", "analysis", "editorial", "review", "survey", "letter"}

// AuthorPoolSize is the number of distinct article author names; names
// recur across articles so Q2/Q4's "articles authored by Y" match several
// documents.
const AuthorPoolSize = 40

// genArticles produces the TC/MD database: articleNum articleXXX.xml
// documents with sizes ranging from a few KB to a few hundred KB
// (paper: article_num, default 266 at ~100 MB).
func (c Config) genArticles(size core.Size, articleNum int) (*core.Database, error) {
	docs := make([]core.Doc, articleNum)
	root := stats.NewRNG(c.Seed ^ 0xA271C1E)
	// Per-article size factors are drawn from an exponential so the corpus
	// mixes many small and a few very large documents, matching the paper's
	// "several kilobytes to several hundred kilobytes".
	sizeDist := stats.Exponential{Lambda: 0.6, Min: 1, Max: 40}
	err := stats.ForEach(articleNum, func(i int) error {
		factor := sizeDist.Draw(root.Split(uint64(i)))
		tmpl := articleTmpl(i, articleNum, factor)
		var err error
		_, docs[i].Name, _ = core.DocOf("a" + strconv.Itoa(i+1))
		docs[i].Data, err = toxgene.Document(tmpl, c.Seed^(0xA271<<8)^uint64(i))
		return err
	})
	if err != nil {
		return nil, err
	}
	return &core.Database{Class: core.TCMD, Size: size, Docs: docs}, nil
}

// articleTmpl builds the template for article index i (0-based). factor
// scales the amount of prose in the body.
func articleTmpl(i, articleNum int, factor float64) *toxgene.Tmpl {
	prose := func(ctx *toxgene.Ctx) *textgen.Text { return textgen.NewText(ctx.R) }
	paraCount := stats.Exponential{Lambda: 0.9 / factor, Min: 1, Max: 12 * factor}

	para := &toxgene.Tmpl{
		Name:  "p",
		Count: paraCount,
		Content: func(ctx *toxgene.Ctx) string {
			return prose(ctx).Paragraph(2 + ctx.R.Intn(4))
		},
	}

	// Sections recurse (Figure 2's back edge): depth-limited here so the
	// template expansion terminates while still producing sec-inside-sec
	// instances that defeat naive relational chain mappings (§3.1.3 item 4).
	var secTmpl func(depth int, topLevel bool) *toxgene.Tmpl
	secTmpl = func(depth int, topLevel bool) *toxgene.Tmpl {
		t := &toxgene.Tmpl{
			Name:  "sec",
			Count: stats.Uniform{Lo: 2, Hi: 5.4},
			Attrs: []toxgene.AttrTmpl{{
				// The unique id added to solve the shredding chain-relationship
				// problem (paper §3.1.3 item 4). The full occurrence path makes
				// it unique even for sections nested inside sections.
				Name: "id",
				Value: func(ctx *toxgene.Ctx) string {
					id := fmt.Sprintf("a%d-s", i+1)
					for d, idx := range ctx.Path[2:] { // skip article, body
						if d > 0 {
							id += "."
						}
						id += strconv.Itoa(idx + 1)
					}
					return id
				},
			}},
			Children: []*toxgene.Tmpl{
				{
					Name: "heading",
					Prob: 0.9,
					Content: func(ctx *toxgene.Ctx) string {
						if topLevel && ctx.IndexAt(2) == 0 {
							// The first top-level section is always entitled
							// "Introduction" so Q4 (the section following it)
							// is well defined in every article.
							return "Introduction"
						}
						return headingCase(prose(ctx).Words(1 + ctx.R.Intn(3)))
					},
				},
				para,
			},
		}
		if depth > 0 {
			t.Children = append(t.Children, secTmpl(depth-1, false))
		}
		if !topLevel {
			t.Count = stats.Uniform{Lo: 0, Hi: 1.4}
		}
		return t
	}

	author := &toxgene.Tmpl{
		Name:  "author",
		Count: stats.Uniform{Lo: 1, Hi: 3.4},
		Children: []*toxgene.Tmpl{
			{Name: "name", Content: func(ctx *toxgene.Ctx) string {
				if ctx.Index() == 0 {
					// The lead author cycles deterministically through the
					// pool so "articles authored by Y" is non-empty for any
					// pool name; article i's lead author is FullName(i%pool).
					return textgen.FullName(i % AuthorPoolSize)
				}
				return textgen.FullName(ctx.R.Intn(AuthorPoolSize))
			}},
			{Name: "affiliation", Prob: 0.7, Content: func(ctx *toxgene.Ctx) string {
				return headingCase(prose(ctx).Words(2)) + " Institute"
			}},
			{
				Name: "contact",
				Prob: 0.8,
				Content: func(ctx *toxgene.Ctx) string {
					// A quarter of present contact elements are empty —
					// the Q15 irregularity.
					if ctx.R.Bool(0.25) {
						return ""
					}
					return textgen.Email(textgen.FullName(ctx.R.Intn(AuthorPoolSize)), ctx.R.Intn(100))
				},
			},
			{Name: "bio", Prob: 0.4, Content: func(ctx *toxgene.Ctx) string {
				return prose(ctx).Sentence(8, 20)
			}},
		},
	}

	prolog := &toxgene.Tmpl{
		Name: "prolog",
		Children: []*toxgene.Tmpl{
			{Name: "title", Content: func(ctx *toxgene.Ctx) string {
				return headingCase(prose(ctx).Words(3 + ctx.R.Intn(5)))
			}},
			{Name: "genre", Prob: 0.7, Content: func(ctx *toxgene.Ctx) string {
				return genres[ctx.R.Intn(len(genres))]
			}},
			{
				Name: "dateline",
				Prob: 0.85,
				Children: []*toxgene.Tmpl{
					{Name: "date", Content: func(ctx *toxgene.Ctx) string {
						// Articles are dated by index so date-range workload
						// parameters select a predictable slice of the corpus.
						return textgen.Date(i * (9 * 360) / max(articleNum, 1))
					}},
					{Name: "country", Prob: 0.6, Content: func(ctx *toxgene.Ctx) string {
						return textgen.Country(ctx.R.Intn(textgen.CountryCount()))
					}},
				},
			},
			{Name: "authors", Children: []*toxgene.Tmpl{author}},
			{
				Name: "abstract",
				Prob: 0.8,
				Children: []*toxgene.Tmpl{{
					Name:  "p",
					Count: stats.Uniform{Lo: 1, Hi: 2.4},
					Content: func(ctx *toxgene.Ctx) string {
						return prose(ctx).Paragraph(2)
					},
				}},
			},
			{
				Name: "keywords",
				Prob: 0.9,
				Children: []*toxgene.Tmpl{{
					Name:  "kw",
					Count: stats.Uniform{Lo: 2, Hi: 6.4},
					Content: func(ctx *toxgene.Ctx) string {
						return prose(ctx).Word()
					},
				}},
			},
		},
	}

	epilog := &toxgene.Tmpl{
		Name: "epilog",
		Prob: 0.6,
		Children: []*toxgene.Tmpl{{
			Name: "references",
			Prob: 0.8,
			Children: []*toxgene.Tmpl{{
				Name:  "a_id",
				Count: stats.Uniform{Lo: 1, Hi: 6.4},
				Attrs: []toxgene.AttrTmpl{{
					Name: "target",
					Value: func(ctx *toxgene.Ctx) string {
						return "a" + strconv.Itoa(1+ctx.R.Intn(max(articleNum, 1)))
					},
				}},
				Content: func(ctx *toxgene.Ctx) string {
					return "article " + strconv.Itoa(1+ctx.R.Intn(max(articleNum, 1)))
				},
			}},
		}},
	}

	return &toxgene.Tmpl{
		Name: "article",
		Attrs: []toxgene.AttrTmpl{{
			Name:  "id",
			Value: toxgene.Const("a" + strconv.Itoa(i+1)),
		}},
		Children: []*toxgene.Tmpl{
			prolog,
			{Name: "body", Children: []*toxgene.Tmpl{secTmpl(2, true)}},
			epilog,
		},
	}
}

// headingCase uppercases the first letter of each word.
func headingCase(s string) string {
	out := []byte(s)
	up := true
	for i, c := range out {
		if up && c >= 'a' && c <= 'z' {
			out[i] = c - 'a' + 'A'
		}
		up = c == ' '
	}
	return string(out)
}
