package engine

import (
	"pdps/internal/storage"
	"pdps/internal/wm"
)

// OpenDurable opens (or initialises) a file storage backend in dir and
// reconciles the program with what survived there. A fresh directory
// (recovered LSN 0) is seeded with the program's initial working memory
// as one synced non-firing record, so recovery always replays onto an
// empty base and WME identities line up; a non-empty one adopts the
// recovered store and skips the program's declared WMEs, which are
// already durable. Either way p.WMEs is cleared: the returned store,
// not the program, owns working memory. Pass the backend and store as
// Options.Storage and Options.Restore. The Recovery describes the
// directory as found, before any seeding. The caller owns the backend
// and must Close it.
func OpenDurable(dir string, p *Program) (*storage.File, *wm.Store, *storage.Recovery, error) {
	f, err := storage.OpenFile(dir, storage.FileOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	rec, err := f.Recover()
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	restore := rec.Store
	if rec.LSN == 0 {
		restore = wm.NewStore()
		var init wm.Delta
		for _, iw := range p.WMEs {
			init.Adds = append(init.Adds, restore.Insert(iw.Class, iw.Attrs))
		}
		if len(init.Adds) > 0 {
			if _, err = f.Append(&storage.Record{Delta: &init}); err == nil {
				err = f.Sync()
			}
			if err != nil {
				f.Close()
				return nil, nil, nil, err
			}
		}
	}
	p.WMEs = nil
	return f, restore, rec, nil
}
