package main

import "fixture/internal/a"

func main() {
	a.SortInts([]int{2, 1})
	_ = a.Used() + len(a.Speak(a.Greeter{}))
}
