package core

import "fmt"

// QueryID identifies one of the 20 abstract XBench query types (paper §2.2).
type QueryID int

// The 20 abstract queries. Each workload class instantiates a subset.
const (
	Q1  QueryID = 1  // exact match, shallow
	Q2  QueryID = 2  // exact match, deep
	Q3  QueryID = 3  // function application (aggregates)
	Q4  QueryID = 4  // ordered access, relative
	Q5  QueryID = 5  // ordered access, absolute
	Q6  QueryID = 6  // existential quantification
	Q7  QueryID = 7  // universal quantification
	Q8  QueryID = 8  // path expression, one unknown element
	Q9  QueryID = 9  // path expression, multiple unknown elements
	Q10 QueryID = 10 // sorting, string type
	Q11 QueryID = 11 // sorting, non-string type
	Q12 QueryID = 12 // document construction, preserving structure
	Q13 QueryID = 13 // document construction, transforming structure
	Q14 QueryID = 14 // irregular data: missing elements
	Q15 QueryID = 15 // irregular data: empty values
	Q16 QueryID = 16 // retrieval of individual documents
	Q17 QueryID = 17 // text search, uni-gram
	Q18 QueryID = 18 // text search, bi-/n-gram (phrase)
	Q19 QueryID = 19 // references and joins
	Q20 QueryID = 20 // datatype casting
)

func (q QueryID) String() string { return fmt.Sprintf("Q%d", int(q)) }

// FunctionGroup returns the paper's functional category for the query.
func (q QueryID) FunctionGroup() string {
	switch q {
	case Q1, Q2:
		return "Exact match"
	case Q3:
		return "Function application"
	case Q4, Q5:
		return "Ordered access"
	case Q6, Q7:
		return "Quantification"
	case Q8, Q9:
		return "Path expressions"
	case Q10, Q11:
		return "Sorting"
	case Q12, Q13:
		return "Document construction"
	case Q14, Q15:
		return "Irregular data"
	case Q16:
		return "Retrieval of individual documents"
	case Q17, Q18:
		return "Text search"
	case Q19:
		return "References and joins"
	case Q20:
		return "Datatype casting"
	}
	return "Unknown"
}

// Params carries the bound parameters of a query instance (the "X", "Y",
// "K1"/"K2" placeholders of the paper's abstract query statements).
type Params map[string]string

// Get returns the parameter or "" when absent.
func (p Params) Get(k string) string { return p[k] }

// Result is the outcome of executing one workload query on one engine.
type Result struct {
	// Items holds the serialized result sequence, one string per item.
	Items []string
	// OrderGuaranteed is false when the engine cannot guarantee document
	// order in the result (shredded mappings without order columns;
	// paper §3.2.2: results "not necessarily accurate").
	OrderGuaranteed bool
	// MixedContentLost is true when the storage mapping dropped
	// mixed-content text that the query would otherwise return.
	MixedContentLost bool
}

// Count returns the number of result items.
func (r Result) Count() int { return len(r.Items) }
