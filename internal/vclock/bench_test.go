package vclock

import "testing"

func BenchmarkDominatesEq(b *testing.B) {
	a := Vector{5, 7, 2, 9, 1, 3, 8, 4}
	o := Vector{4, 7, 1, 9, 0, 3, 8, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !a.DominatesEq(o) {
			b.Fatal("unexpected")
		}
	}
}

func BenchmarkMaxInto(b *testing.B) {
	a := Vector{5, 7, 2, 9, 1, 3, 8, 4}
	o := Vector{4, 8, 1, 9, 0, 5, 8, 4}
	buf := a.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, a)
		buf = buf.MaxInto(o)
	}
}

func BenchmarkSiteClockAdvance(b *testing.B) {
	c := NewSiteClock(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Advance(0, uint64(i+1))
	}
}
