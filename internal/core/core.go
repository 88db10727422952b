// Package core defines the central vocabulary of the XBench benchmark:
// the four database classes, the scale steps, the abstract query
// identifiers, and the Engine interface that every system under test
// implements. All other packages build on these types.
//
// XBench (Yao, Özsu, Khandelwal; ICDE 2004) characterizes XML database
// applications along two dimensions — data-centric (DC) vs text-centric
// (TC) applications, and single-document (SD) vs multi-document (MD)
// databases — giving four benchmark classes, each with its own database
// generator and workload instantiation.
package core

import (
	"fmt"
	"strings"
)

// Class identifies one of the four XBench database classes (paper Table 1).
type Class int

const (
	// TCSD is text-centric / single document: one big dictionary.xml with
	// numerous word entries, deep nesting and cross references.
	TCSD Class = iota
	// TCMD is text-centric / multiple documents: a corpus of articleXXX.xml
	// files with loose, irregular, possibly recursive schemas.
	TCMD
	// DCSD is data-centric / single document: one catalog.xml produced by a
	// nesting join of TPC-W tables (ITEM base).
	DCSD
	// DCMD is data-centric / multiple documents: orderXXX.xml per order plus
	// flat-translated Customer/Item/Author/Address/Country documents.
	DCMD
)

// Classes lists all four classes in the order the paper's tables use.
var Classes = []Class{DCSD, DCMD, TCSD, TCMD}

// String returns the paper's notation, e.g. "DC/SD".
func (c Class) String() string {
	switch c {
	case TCSD:
		return "TC/SD"
	case TCMD:
		return "TC/MD"
	case DCSD:
		return "DC/SD"
	case DCMD:
		return "DC/MD"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Code returns the compact lowercase code used in CLI flags and database
// instance names, e.g. "tcsd".
func (c Class) Code() string {
	return strings.ToLower(strings.ReplaceAll(c.String(), "/", ""))
}

// SingleDocument reports whether the database consists of one XML document.
func (c Class) SingleDocument() bool { return c == TCSD || c == DCSD }

// ParseClass converts a code such as "tcsd" or "TC/SD" to a Class.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.NewReplacer("/", "", "-", "", "_", "").Replace(s)) {
	case "tcsd":
		return TCSD, nil
	case "tcmd":
		return TCMD, nil
	case "dcsd":
		return DCSD, nil
	case "dcmd":
		return DCMD, nil
	}
	return 0, fmt.Errorf("core: unknown class %q (want tcsd, tcmd, dcsd or dcmd)", s)
}

// Size is one of the XBench scale steps. Paper sizes are 10 MB (small),
// 100 MB (normal), 1 GB (large) and 10 GB (huge), spaced 10x apart. Our
// default bench scales keep the 10x spacing but shrink the absolute sizes
// so the full grid runs in CI; cmd/xbench can generate paper-scale data.
type Size int

const (
	Small Size = iota
	Normal
	Large
	Huge
)

// Sizes lists the three sizes the paper reports results for.
var Sizes = []Size{Small, Normal, Large}

func (s Size) String() string {
	switch s {
	case Small:
		return "Small"
	case Normal:
		return "Normal"
	case Large:
		return "Large"
	case Huge:
		return "Huge"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// Factor returns the scale multiplier relative to Small (1, 10, 100, 1000).
func (s Size) Factor() int {
	f := 1
	for i := Size(0); i < s; i++ {
		f *= 10
	}
	return f
}

// ParseSize converts "small", "normal", "large" or "huge" to a Size.
func ParseSize(s string) (Size, error) {
	switch strings.ToLower(s) {
	case "small", "s":
		return Small, nil
	case "normal", "n":
		return Normal, nil
	case "large", "l":
		return Large, nil
	case "huge", "h":
		return Huge, nil
	}
	return 0, fmt.Errorf("core: unknown size %q (want small, normal, large or huge)", s)
}

// InstanceName returns the database instance naming scheme of the paper,
// e.g. TCSD + Small -> "TCSDS".
func InstanceName(c Class, s Size) string {
	return strings.ReplaceAll(c.String(), "/", "") + s.String()[:1]
}
