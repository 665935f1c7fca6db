package match

import (
	"fmt"

	"pdps/internal/wm"
)

// ExecuteActions evaluates the instantiation's RHS into the firing's
// transaction. It reports whether a halt action was executed. A modify
// or remove of a WME the instantiation matched uses that WME's
// identity, so two actions on the same CE compose (modify then remove,
// etc.).
func ExecuteActions(in *Instantiation, tx *wm.Txn) (halt bool, err error) {
	var buf [8]wm.AttrValue
	for i, a := range in.Rule.Actions {
		switch a.Kind {
		case ActHalt:
			return true, nil
		case ActMake:
			attrs, err := evalAssigns(buf[:0], a.Assigns, in.Bindings)
			if err != nil {
				return false, fmt.Errorf("%s action %d: %w", in.Rule.Name, i+1, err)
			}
			tx.Insert(a.Class, attrs)
		case ActModify:
			updates, err := evalAssigns(buf[:0], a.Assigns, in.Bindings)
			if err != nil {
				return false, fmt.Errorf("%s action %d: %w", in.Rule.Name, i+1, err)
			}
			if _, err := tx.Modify(in.WMEs[a.CE].ID, updates); err != nil {
				return false, fmt.Errorf("%s action %d: %w", in.Rule.Name, i+1, err)
			}
		case ActRemove:
			if err := tx.Remove(in.WMEs[a.CE].ID); err != nil {
				return false, fmt.Errorf("%s action %d: %w", in.Rule.Name, i+1, err)
			}
		default:
			return false, fmt.Errorf("%s action %d: unknown kind %d", in.Rule.Name, i+1, a.Kind)
		}
	}
	return false, nil
}

// evalAssigns appends the evaluated assignments to dst in source order;
// the transaction lets a later assignment of a name win.
func evalAssigns(dst []wm.AttrValue, assigns []AttrAssign, b Bindings) ([]wm.AttrValue, error) {
	for _, as := range assigns {
		v, err := as.Expr.Eval(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, wm.AttrValue{Name: as.Attr, Val: v})
	}
	return dst, nil
}
