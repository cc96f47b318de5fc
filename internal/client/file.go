package client

import (
	"context"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dais/internal/core"
	"dais/internal/filestore"
	"dais/internal/ops"
	"dais/internal/xmlutil"
)

// ReadFile reads a byte range from a file resource (count < 0 reads to
// the end).
func (c *Client) ReadFile(ctx context.Context, ref ResourceRef, name string, offset, count int64) ([]byte, error) {
	resp, err := c.invoke(ctx, ref, ops.ReadFile,
		ops.FileRangeMsg{FileName: name, Offset: offset, Count: count})
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(resp.FindText(ops.NSDAIF, "Data"))
}

// WriteFile replaces a file's contents.
func (c *Client) WriteFile(ctx context.Context, ref ResourceRef, name string, data []byte) error {
	_, err := c.invoke(ctx, ref, ops.WriteFile, ops.FileDataMsg{FileName: name, Data: data})
	return err
}

// AppendFile extends a file.
func (c *Client) AppendFile(ctx context.Context, ref ResourceRef, name string, data []byte) error {
	_, err := c.invoke(ctx, ref, ops.AppendFile, ops.FileDataMsg{FileName: name, Data: data})
	return err
}

// DeleteFile removes a file.
func (c *Client) DeleteFile(ctx context.Context, ref ResourceRef, name string) error {
	_, err := c.invoke(ctx, ref, ops.DeleteFile, ops.FileNameMsg{FileName: name})
	return err
}

// ListFiles lists files matching a glob pattern ("" lists everything).
func (c *Client) ListFiles(ctx context.Context, ref ResourceRef, pattern string) ([]filestore.FileInfo, error) {
	resp, err := c.invoke(ctx, ref, ops.ListFiles, ops.PatternMsg{Pattern: pattern})
	if err != nil {
		return nil, err
	}
	return decodeFileList(resp.Find(ops.NSDAIF, "FileList"))
}

// StatFile returns one file's metadata.
func (c *Client) StatFile(ctx context.Context, ref ResourceRef, name string) (filestore.FileInfo, error) {
	resp, err := c.invoke(ctx, ref, ops.StatFile, ops.FileNameMsg{FileName: name})
	if err != nil {
		return filestore.FileInfo{}, err
	}
	infos, err := decodeFileList(resp.Find(ops.NSDAIF, "FileList"))
	if err != nil || len(infos) != 1 {
		return filestore.FileInfo{}, fmt.Errorf("client: StatFile returned %d entries (%v)", len(infos), err)
	}
	return infos[0], nil
}

// FileSelectFactory stages the files matching the pattern into a
// derived resource and returns its reference.
func (c *Client) FileSelectFactory(ctx context.Context, ref ResourceRef, pattern string, cfg *core.Configuration) (ResourceRef, error) {
	return c.factory(ctx, ref, ops.FileSelectFactory,
		ops.FileFactoryMsg{Pattern: pattern, Config: cfg})
}

func decodeFileList(list *xmlutil.Element) ([]filestore.FileInfo, error) {
	if list == nil {
		return nil, fmt.Errorf("client: response missing FileList")
	}
	var out []filestore.FileInfo
	for _, f := range list.FindAll(ops.NSDAIF, "File") {
		fi := filestore.FileInfo{Name: f.AttrValue("", "name")}
		size, err := strconv.ParseInt(strings.TrimSpace(f.AttrValue("", "size")), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("client: file %q: size %q is not an integer", fi.Name, f.AttrValue("", "size"))
		}
		fi.Size = size
		if ts, err := time.Parse(time.RFC3339Nano, f.AttrValue("", "modified")); err == nil {
			fi.Modified = ts
		}
		out = append(out, fi)
	}
	return out, nil
}
