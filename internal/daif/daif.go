// Package daif implements an experimental WS-DAIF files realisation of
// the WS-DAI core.
//
// The paper's conclusions record that beyond the relational and XML
// realisations, "different groups are exploring the development of
// additional realisations for object databases, ontologies and files"
// (§6), with preliminary drafts extending the base interfaces to files
// (§4.1). This package follows the same extension recipe WS-DAIR and
// WS-DAIX use: an externally managed data resource wrapping an existing
// system (a file store), direct access operations (FileAccess: ranged
// reads, writes, listing, metadata), and an indirect factory
// (FileSelectFactory) that derives a service-managed resource from a
// glob selection — the grid file-staging pattern, where a selection of
// files is pinned and its EPR handed to a third party.
package daif

import (
	"context"
	"fmt"

	"dais/internal/core"
	"dais/internal/filestore"
	"dais/internal/xmlutil"
)

// NSDAIF is the namespace of the files realisation.
const NSDAIF = "http://www.ggf.org/namespaces/2005/12/WS-DAIF"

func init() {
	xmlutil.RegisterVocabulary(NSDAIF, "FileList", "File", "NumberOfFiles", "TotalSize", "name", "size", "modified")
}

// LanguageGlob identifies the glob selection language accepted by
// GenericQuery and the select factory.
const LanguageGlob = NSDAIF + "/glob"

// FormatBinary is the single dataset format file resources return
// (base64 inside XML messages at the service layer).
const FormatBinary = "http://www.iana.org/assignments/media-types/application/octet-stream"

// FileDataResource is an externally managed file data resource: a
// WS-DAIF wrapper around a directory tree in a file store.
type FileDataResource struct {
	core.BaseResource
	store *filestore.Store
}

// FileOption configures a FileDataResource.
type FileOption func(*FileDataResource)

// WithFileConfiguration overrides the default configuration.
func WithFileConfiguration(c core.Configuration) FileOption {
	return func(r *FileDataResource) { r.Config = c }
}

// NewFileDataResource wraps a store as a data resource.
func NewFileDataResource(store *filestore.Store, opts ...FileOption) *FileDataResource {
	r := &FileDataResource{
		BaseResource: core.BaseResource{
			Name: core.NewAbstractName("file"),
			Mgmt: core.ExternallyManaged,
			Config: core.Configuration{
				Description:          "file data resource " + store.Name(),
				Readable:             true,
				Writeable:            true,
				TransactionIsolation: "READ COMMITTED",
			},
		},
		store: store,
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Store exposes the underlying store.
func (r *FileDataResource) Store() *filestore.Store { return r.store }

// QueryLanguages implements core.DataResource.
func (r *FileDataResource) QueryLanguages() []string { return []string{LanguageGlob} }

// DatasetFormats implements core.DataResource.
func (r *FileDataResource) DatasetFormats() []string { return []string{FormatBinary} }

// GenericQuery implements core.DataResource: a glob expression lists
// matching files as a FileList element.
func (r *FileDataResource) GenericQuery(ctx context.Context, languageURI, expression string) (*xmlutil.Element, error) {
	if languageURI != LanguageGlob {
		return nil, &core.InvalidLanguageFault{Language: languageURI}
	}
	infos, err := r.ListFiles(ctx, expression)
	if err != nil {
		return nil, err
	}
	return FileListElement(infos), nil
}

// ExtendedProperties implements core.DataResource with file-store
// metadata.
func (r *FileDataResource) ExtendedProperties() []*xmlutil.Element {
	n := xmlutil.NewElement(NSDAIF, "NumberOfFiles")
	n.SetText(fmt.Sprintf("%d", r.store.Count()))
	sz := xmlutil.NewElement(NSDAIF, "TotalSize")
	sz.SetText(fmt.Sprintf("%d", r.store.TotalSize()))
	return []*xmlutil.Element{n, sz}
}

// Release implements core.DataResource; external files persist.
func (r *FileDataResource) Release() error { return nil }

// --- FileAccess operations ---

// ReadFile implements FileAccess.ReadFile: up to count bytes from
// offset (count < 0 reads to the end).
func (r *FileDataResource) ReadFile(ctx context.Context, name string, offset, count int64) ([]byte, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return nil, err
	}
	data, err := r.store.Read(name, offset, count)
	if err != nil {
		return nil, core.QueryFault(ctx, err)
	}
	return data, nil
}

// WriteFile implements FileAccess.WriteFile (full replace).
func (r *FileDataResource) WriteFile(ctx context.Context, name string, data []byte) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return err
	}
	if err := r.store.Write(name, data); err != nil {
		return core.QueryFault(ctx, err)
	}
	return nil
}

// AppendFile implements FileAccess.AppendFile.
func (r *FileDataResource) AppendFile(ctx context.Context, name string, data []byte) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return err
	}
	if err := r.store.Append(name, data); err != nil {
		return core.QueryFault(ctx, err)
	}
	return nil
}

// DeleteFile implements FileAccess.DeleteFile.
func (r *FileDataResource) DeleteFile(ctx context.Context, name string) error {
	if err := core.CheckWriteable(r); err != nil {
		return err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return err
	}
	if err := r.store.Delete(name); err != nil {
		return core.QueryFault(ctx, err)
	}
	return nil
}

// ListFiles implements FileAccess.ListFiles over a glob pattern.
func (r *FileDataResource) ListFiles(ctx context.Context, pattern string) ([]filestore.FileInfo, error) {
	if err := core.CheckReadable(r); err != nil {
		return nil, err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return nil, err
	}
	infos, err := r.store.List(pattern)
	if err != nil {
		return nil, core.QueryFault(ctx, err)
	}
	return infos, nil
}

// StatFile implements FileAccess.StatFile.
func (r *FileDataResource) StatFile(ctx context.Context, name string) (filestore.FileInfo, error) {
	if err := core.CheckReadable(r); err != nil {
		return filestore.FileInfo{}, err
	}
	if err := core.TimeoutFault(ctx); err != nil {
		return filestore.FileInfo{}, err
	}
	info, err := r.store.Stat(name)
	if err != nil {
		return filestore.FileInfo{}, core.QueryFault(ctx, err)
	}
	return info, nil
}

// FileListElement renders file metadata as a FileList element.
func FileListElement(infos []filestore.FileInfo) *xmlutil.Element {
	list := xmlutil.NewElement(NSDAIF, "FileList")
	for _, fi := range infos {
		f := list.Add(NSDAIF, "File")
		f.SetAttr("", "name", fi.Name)
		f.SetAttr("", "size", fmt.Sprintf("%d", fi.Size))
		f.SetAttr("", "modified", fi.Modified.UTC().Format("2006-01-02T15:04:05.999999999Z07:00"))
	}
	return list
}
