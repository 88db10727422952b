package xquery

// expr is an AST node.
type expr interface{ exprNode() }

// literal is a string or numeric constant.
type literal struct {
	str   string
	num   float64
	isNum bool
}

// varRef references $name; pos, here and below, is where errors point.
type varRef struct {
	name string
	pos  int
}

// contextItem is '.'.
type contextItem struct{ pos int }

// axis of a path step.
type axis int

const (
	axisChild axis = iota
	axisDescendant
	axisAttribute
	axisFollowingSibling
)

// step is one path step: axis::test[pred]...
type step struct {
	axis  axis
	name  string // element/attribute name; "*" is a wildcard
	preds []expr
}

// pathExpr applies steps to an input expression: the collection when
// fromRoot (a leading '//'), a primary expression, or the context item
// when input is nil.
type pathExpr struct {
	input    expr
	fromRoot bool
	steps    []step
	pos      int
}

// binary is a general comparison or 'and'.
type binary struct {
	op   string
	l, r expr
}

// call is a call of a builtin, bound when the query was parsed.
type call struct {
	fn   *builtin
	args []expr
	pos  int
}

// flwor is for/where/order by/return.
type flwor struct {
	clauses []forClause
	where   expr
	orderBy expr // nil when the results are not sorted
	ret     expr
}

type forClause struct {
	varName string
	src     expr
}

// quantified is some/every $v in src satisfies cond.
type quantified struct {
	every   bool
	varName string
	src     expr
	cond    expr
}

// elemCtor is a direct element constructor. Content parts are either raw
// text (string) or enclosed expressions (expr).
type elemCtor struct {
	name    string
	attrs   []attrCtor
	content []any // string | expr
	pos     int
}

type attrCtor struct {
	name  string
	parts []any // string | expr
}

func (literal) exprNode()     {}
func (varRef) exprNode()      {}
func (contextItem) exprNode() {}
func (pathExpr) exprNode()    {}
func (binary) exprNode()      {}
func (call) exprNode()        {}
func (flwor) exprNode()       {}
func (quantified) exprNode()  {}
func (elemCtor) exprNode()    {}
