package vfs

import "testing"

// BenchmarkVFSLookupInterned times the clean-path fast walk: component
// iteration by substring, binary-searched in each directory's sorted
// entries, no Clean, no split slice. Every simulated
// open/exec pays this path, so allocs/op here must report 0.
func BenchmarkVFSLookupInterned(b *testing.B) {
	fs := New()
	if err := fs.MkdirAll("/usr/lib/system/deep"); err != nil {
		b.Fatal(err)
	}
	if err := fs.WriteFile("/usr/lib/system/deep/libsystem_kernel.dylib", []byte("x")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Lookup("/usr/lib/system/deep/libsystem_kernel.dylib"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVFSLookupMiss times the not-found path for contrast; the error
// carries the path, so one allocation per miss is expected and allowed.
func BenchmarkVFSLookupMiss(b *testing.B) {
	fs := New()
	if err := fs.MkdirAll("/usr/lib"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Lookup("/usr/lib/nonesuch"); err == nil {
			b.Fatal("expected miss")
		}
	}
}
