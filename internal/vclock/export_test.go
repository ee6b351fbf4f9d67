package vclock

// Less reports whether v < o in every dimension (the strict ordering used by
// the paper's proofs: v[k] < o[k] for all k).
func (v Vector) Less(o Vector) bool {
	if len(o) == 0 {
		return false
	}
	for k := range o {
		var vk uint64
		if k < len(v) {
			vk = v[k]
		}
		if vk >= o[k] {
			return false
		}
	}
	return true
}

// Sum returns the total number of transactions reflected in v.
func (v Vector) Sum() uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}
