// Package gen builds the four XBench benchmark databases (paper §2.1):
// the TC/SD dictionary, the TC/MD article corpus, the DC/SD catalog and
// the DC/MD order/flat-document set. Text-centric classes are produced by
// ToXgene-style templates (internal/toxgene); data-centric classes are
// mapped from a deterministic TPC-W population (internal/tpcw) using the
// paper's nesting join (catalog.xml) and flat translation (FT) mappings.
//
// Databases are deterministic in (class, size, seed): regenerating always
// yields byte-identical documents.
package gen

import (
	"fmt"

	"xbench/internal/core"
)

// Config controls database generation. The zero value uses defaults
// calibrated so a Small database is roughly 0.4 MB — the paper's 10 MB /
// 100 MB / 1 GB steps shrunk ~25x so the full benchmark grid runs in CI
// while preserving the 10x spacing between sizes. Scale up with
// SizeMultiplier (25 reproduces the paper's absolute sizes).
type Config struct {
	// Seed drives all randomness. The default 0 is a valid seed.
	Seed uint64
	// DictEntries is entry_num at Small (paper default 7333 at Normal,
	// i.e. 733 at Small paper-scale).
	DictEntries int
	// Articles is article_num at Small (paper default 266 at Normal).
	Articles int
	// Items is the TPC-W ITEM count at Small (drives DC/SD).
	Items int
	// Orders is the TPC-W ORDERS count at Small (drives DC/MD).
	Orders int
	// SizeMultiplier scales every count; 0 means 1.
	SizeMultiplier int
}

// Defaults for the Small scale (~0.4 MB per database).
const (
	DefaultDictEntries = 400
	DefaultArticles    = 30
	DefaultItems       = 160
	DefaultOrders      = 320
)

func (c Config) withDefaults() Config {
	if c.DictEntries == 0 {
		c.DictEntries = DefaultDictEntries
	}
	if c.Articles == 0 {
		c.Articles = DefaultArticles
	}
	if c.Items == 0 {
		c.Items = DefaultItems
	}
	if c.Orders == 0 {
		c.Orders = DefaultOrders
	}
	if c.SizeMultiplier == 0 {
		c.SizeMultiplier = 1
	}
	return c
}

// Generate builds the database for one class at one size using default
// configuration.
func Generate(class core.Class, size core.Size) (*core.Database, error) {
	return Config{}.Generate(class, size)
}

// Generate builds the database for one class at one size.
func (c Config) Generate(class core.Class, size core.Size) (*core.Database, error) {
	c = c.withDefaults()
	f := size.Factor() * c.SizeMultiplier
	switch class {
	case core.TCSD:
		return c.genDictionary(size, c.DictEntries*f)
	case core.TCMD:
		return c.genArticles(size, c.Articles*f)
	case core.DCSD:
		return c.genCatalog(size, c.Items*f)
	case core.DCMD:
		return c.genOrders(size, c.Orders*f)
	}
	return nil, fmt.Errorf("gen: unknown class %v", class)
}

// SourceCorpus describes one of the real corpora the paper analyzed to
// derive the TC class statistics (paper Table 2). We cannot redistribute
// the corpora; these rows document the provenance that shaped the
// distributions hard-coded in this package.
type SourceCorpus struct {
	Name     string
	Files    int
	FileSize string // as printed in Table 2
	DataMB   int
}

// AnalyzedCorpora reproduces paper Table 2.
var AnalyzedCorpora = []SourceCorpus{
	{Name: "GCIDE", Files: 1, FileSize: "56 MB", DataMB: 56},
	{Name: "OED", Files: 1, FileSize: "548 MB", DataMB: 548},
	{Name: "Reuters", Files: 807000, FileSize: "[1, 59] KB", DataMB: 2484},
	{Name: "Springer", Files: 196000, FileSize: "[1, 613] KB", DataMB: 1343},
}
