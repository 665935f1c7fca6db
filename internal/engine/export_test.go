package engine

// Refraction reports the size of the session's refraction memory and
// how many of its entries name only live WME versions, i.e. could still
// block a firing.
func (s *Session) Refraction() (size, live int) {
	for _, in := range s.rt.fired {
		if !s.rt.dead(in) {
			live++
		}
	}
	return len(s.rt.fired), live
}
