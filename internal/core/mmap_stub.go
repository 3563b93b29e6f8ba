//go:build !unix

package core

// LoadIndexMmap has no mmap off unix: it reads the file and assembles it
// as a read image over the graph the file embeds (loadIndexFile), so the
// payload is verified like LoadIndex's input and callers need no
// fallback. The closer has nothing to release.
func LoadIndexMmap(path string, p Params) (*Engine, func() error, error) {
	e, err := loadIndexFile(path, p)
	if err != nil {
		return nil, nil, err
	}
	return e, func() error { return nil }, nil
}
