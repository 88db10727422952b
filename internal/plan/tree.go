package plan

import (
	"fmt"
	"strconv"
	"strings"

	"xbench/internal/core"
	"xbench/internal/xquery"
)

// buildTree renders the Physical as the printable operator tree served
// through the Explain API. The vocabulary is stable — golden files
// under results/plans/ diff the Format() output.
func buildTree(ph *Physical, st StatValues) *core.PlanNode {
	sh := ph.Shape
	var prim *xquery.Source
	if len(ph.Sources) > 0 {
		prim = &ph.Sources[0]
	}

	node := accessNode(ph, prim)
	if f := filterNode(ph, prim); f != nil {
		f.Children = []*core.PlanNode{node}
		node = f
	}
	if j := joinNode(ph, st, node); j != nil {
		node = j
	}
	if ph.Limit > 0 {
		node = &core.PlanNode{
			Op:       "limit",
			Target:   strconv.Itoa(ph.Limit),
			Detail:   "limit-pushdown",
			Children: []*core.PlanNode{node},
		}
	}
	if sh.OrderBy {
		node = &core.PlanNode{Op: "sort", Detail: "order by", Children: []*core.PlanNode{node}}
	}
	if sh.Aggregate != "" && !sh.Constructs {
		node = &core.PlanNode{Op: "aggregate", Target: sh.Aggregate, Children: []*core.PlanNode{node}}
	}
	if sh.Constructs {
		node = &core.PlanNode{Op: "construct", Children: []*core.PlanNode{node}}
	}
	return node
}

// accessNode renders the chosen primary access path.
func accessNode(ph *Physical, prim *xquery.Source) *core.PlanNode {
	switch ph.Access {
	case AccessDoc:
		return &core.PlanNode{
			Op:       "doc-lookup",
			Target:   "$" + docParam(ph),
			EstPages: ph.EstCost,
			EstRows:  ph.EstRows,
		}
	case AccessIndex:
		return &core.PlanNode{
			Op:       "index-probe",
			Target:   ph.IndexTarget,
			Detail:   probeDetail(ph, prim),
			EstPages: ph.EstCost,
			EstRows:  ph.EstRows,
		}
	default:
		target := "collection"
		if prim != nil && prim.RootElem != "" {
			target = prim.RootElem
		}
		return &core.PlanNode{
			Op:       "scan",
			Target:   target,
			Detail:   "sequential",
			EstPages: ph.EstCost,
			EstRows:  ph.EstRows,
		}
	}
}

// docParam names the parameter holding the document name.
func docParam(ph *Physical) string {
	for _, p := range ph.Def.Params {
		if p == "DOC" {
			return p
		}
	}
	if len(ph.Def.Params) > 0 {
		return ph.Def.Params[0]
	}
	return "DOC"
}

// probeDetail renders the predicate(s) pushed into the index probe.
func probeDetail(ph *Physical, prim *xquery.Source) string {
	if prim == nil {
		return ""
	}
	if ph.IndexParam != "" {
		for _, pr := range prim.Preds {
			if pushedPred(ph, prim, &pr) && pr.Op == "=" {
				return pr.Path + " = " + pr.Param
			}
		}
		return "= $" + ph.IndexParam
	}
	var path string
	for _, pr := range prim.Preds {
		if pushedPred(ph, prim, &pr) {
			path = pr.Path
			break
		}
	}
	return fmt.Sprintf("%s in [$%s..$%s]", path, ph.LoParam, ph.HiParam)
}

// pushedPred reports whether pr is absorbed by the index probe.
func pushedPred(ph *Physical, prim *xquery.Source, pr *xquery.Pred) bool {
	if ph.Access != AccessIndex {
		return false
	}
	if pr.Path != ph.IndexTarget && prim.RootElem+"/"+pr.Path != ph.IndexTarget {
		return false
	}
	switch pr.Op {
	case "=":
		return paramName(pr.Param) == ph.IndexParam
	case ">=", ">":
		return paramName(pr.Param) == ph.LoParam
	case "<=", "<":
		return paramName(pr.Param) == ph.HiParam
	}
	return false
}

// filterNode renders the residual predicates re-evaluated above the
// access path, nil when everything was pushed down.
func filterNode(ph *Physical, prim *xquery.Source) *core.PlanNode {
	if prim == nil {
		return nil
	}
	var parts []string
	for i := range prim.Preds {
		pr := &prim.Preds[i]
		if pushedPred(ph, prim, pr) || strings.Contains(pr.Param, "/") {
			continue
		}
		parts = append(parts, pr.Path+" "+pr.Op+" "+pr.Param)
	}
	if ph.Shape.Quantified {
		parts = append(parts, "quantified")
	}
	if ph.Shape.TextSearch {
		parts = append(parts, "text-search")
	}
	if len(parts) == 0 && prim.Residual > 0 {
		parts = append(parts, "residual")
	}
	if len(parts) == 0 {
		return nil
	}
	return &core.PlanNode{Op: "filter", Detail: strings.Join(parts, " and ")}
}

// joins reports whether ph is a two-source FLWOR join, whose inner side
// joinNode plans over the index set.
func joins(ph *Physical) bool {
	return len(ph.Sources) == 2 && ph.Sources[0].Var != "" && ph.Sources[1].Var != ""
}

// joinNode wraps the outer access with the inner side of a two-source
// FLWOR join (Q19): index nested loop when the inner's join key is
// indexed, plain nested loop otherwise.
func joinNode(ph *Physical, st StatValues, outer *core.PlanNode) *core.PlanNode {
	if !joins(ph) {
		return nil
	}
	inner := &ph.Sources[1]
	var joinPred *xquery.Pred
	for i := range inner.Preds {
		if strings.Contains(inner.Preds[i].Param, "/") {
			joinPred = &inner.Preds[i]
			break
		}
	}
	innerNode := &core.PlanNode{Op: "scan", Target: inner.RootElem, Detail: "sequential"}
	strategy := "nested-loop"
	if joinPred != nil {
		target := ""
		if _, ok := st.Indexes[joinPred.Path]; ok {
			target = joinPred.Path
		} else if _, ok := st.Indexes[inner.RootElem+"/"+joinPred.Path]; ok {
			target = inner.RootElem + "/" + joinPred.Path
		}
		if target != "" {
			innerNode = &core.PlanNode{
				Op:     "index-probe",
				Target: target,
				Detail: joinPred.Path + " = " + joinPred.Param,
			}
			strategy = "index-nested-loop"
		} else {
			innerNode.Detail = joinPred.Path + " = " + joinPred.Param
		}
	}
	return &core.PlanNode{
		Op:       "join",
		Target:   ph.Sources[0].RootElem + " x " + inner.RootElem,
		Detail:   strategy,
		Children: []*core.PlanNode{outer, innerNode},
	}
}
