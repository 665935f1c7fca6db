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
	for i, a := range in.Rule.Actions {
		switch a.Kind {
		case ActHalt:
			return true, nil
		case ActMake:
			attrs, err := evalAssigns(a.Assigns, in.Bindings)
			if err != nil {
				return false, fmt.Errorf("%s action %d: %w", in.Rule.Name, i+1, err)
			}
			tx.Insert(a.Class, attrs)
		case ActModify:
			updates, err := evalAssigns(a.Assigns, in.Bindings)
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

func evalAssigns(assigns []AttrAssign, b Bindings) (map[string]wm.Value, error) {
	attrs := make(map[string]wm.Value, len(assigns))
	for _, as := range assigns {
		v, err := as.Expr.Eval(b)
		if err != nil {
			return nil, err
		}
		attrs[as.Attr] = v
	}
	return attrs, nil
}
