// Package a plants one export of each kind the surface guard must tell apart.
package a

import "sort"

// Used is called from main.
func Used() int { return len(Greeter{}.Name()) }

// Planted is called by nothing: the guard must report it.
func Planted() {}

// planted is unexported and called by nothing: the guard reports it too.
func planted() {}

// Recursive calls only itself: its own body does not count as a reference.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Greeter has methods reached by rules other than a direct reference.
type Greeter struct{}

// Name is called by Used.
func (Greeter) Name() string { return "g" }

// Hello is reached only through the literal interface assertion in Speak.
func (Greeter) Hello(to string) string { return "hello " + to }

// String is exempt by name.
func (Greeter) String() string { return "greeter" }

// Speak reaches Hello through an inline interface, the way a caller reaches a
// method that only some implementations have.
func Speak(v any) string {
	if h, ok := v.(interface{ Hello(string) string }); ok {
		return h.Hello("x")
	}
	return ""
}

// Other has a method named like Greeter's called one; resolving by type, not
// by name, still reports it.
type Other struct{}

// Name is never called on an Other.
func (Other) Name() string { return "o" }

// base is embedded by Sorted; its Len is reached through sort.Interface.
type base struct{ xs []int }

func (b base) Len() int { return len(b.xs) }

// Sorted satisfies sort.Interface with a promoted Len.
type Sorted struct{ base }

// Less and Swap complete sort.Interface.
func (s Sorted) Less(i, j int) bool { return s.xs[i] < s.xs[j] }
func (s Sorted) Swap(i, j int)      { s.xs[i], s.xs[j] = s.xs[j], s.xs[i] }

// SortInts sorts through sort.Interface.
func SortInts(xs []int) { sort.Sort(Sorted{base{xs}}) }
