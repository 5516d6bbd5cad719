package grammar

// Accepting reports whether EOS is legal: every open construct can finish.
func (a *Automaton) Accepting(st *State) bool {
	w := st.clone()
	for len(w.frames) > 0 {
		if !a.advance(w) {
			return false
		}
	}
	return true
}
