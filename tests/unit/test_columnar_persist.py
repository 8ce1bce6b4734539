"""Columnar persistence: save → mmap-open round trips and corruption.

Every corruption mode — truncation at any boundary, a foreign magic, a
flipped payload byte, an unsupported version, the wrong byte order —
must surface as a typed :class:`StorageError` (a ``ReproError`` with
code ``REPRO-STORAGE`` naming the file), never a crash and never a
silently wrong answer.
"""

import io
import json
import os
import struct
import sys
import threading
from array import array
from pathlib import Path

import pytest

from repro import Engine
from repro.guard import ReproError
from repro.xmltree import (ColumnarDocument, IndexedDocument, StorageError,
                           is_columnar_file, serialize)
from repro.cli import main as cli_main
from repro.data import member_document

from tests.unit.test_serve import SITE_XML

XML = ('<site lang="en"><people><person id="p1"><name>John</name>'
       '<emailaddress>j@x.example</emailaddress></person>'
       '<person id="p2"><name>Ada</name></person></people>'
       '<regions><item ref="p1">text &amp; more</item></regions></site>')

_INT_COLUMNS = ("post", "level", "end", "parent", "name_id", "text_id",
                "path_id")


@pytest.fixture()
def saved(tmp_path):
    doc = IndexedDocument.from_string(XML, uri="memory://site")
    path = tmp_path / "site.rpxc"
    size = doc.save(path)
    assert size == path.stat().st_size
    return doc, path


class TestRoundTrip:
    def test_every_column_survives(self, saved):
        doc, path = saved
        reopened = ColumnarDocument.open(path)
        original = doc.columns
        for name in _INT_COLUMNS:
            assert list(getattr(reopened, name)) == \
                list(getattr(original, name)), name
        assert list(reopened.kind) == list(original.kind)
        assert list(reopened.names) == list(original.names)
        assert list(reopened.texts) == list(original.texts)
        assert {t: list(s) for t, s in reopened.tag_pres.items()} == \
            {t: list(s) for t, s in original.tag_pres.items()}
        assert {t: list(s) for t, s in
                reopened.attribute_pres.items()} == \
            {t: list(s) for t, s in original.attribute_pres.items()}
        assert list(reopened.text_pres) == list(original.text_pres)
        assert list(reopened.element_pres) == list(original.element_pres)
        assert list(reopened.path_dir) == list(original.path_dir)
        assert reopened.uri == "memory://site"
        assert reopened.is_mapped
        reopened.validate()
        reopened.close()

    def test_query_results_survive(self, saved):
        doc, path = saved
        reopened = IndexedDocument.open(path)
        query = "$input//person[emailaddress]/name"
        expected = [serialize(n) for n in Engine(doc).run(query)]
        for strategy in ("nljoin", "twigjoin", "scjoin", "item"):
            got = [serialize(n) for n in Engine(reopened).run(
                query, strategy=strategy)]
            assert got == expected
        assert serialize(reopened.root) == serialize(doc.root)

    @pytest.mark.skipif(sys.byteorder != "little",
                        reason="the fixture was written little-endian")
    def test_file_the_previous_build_path_wrote(self, tmp_path):
        """``parent_written.rpxc`` is a format-2 file saved from the
        ``nested-attributes`` text of ``parser_nodes.json``: today's
        build writes the same bytes and reads those."""
        data = Path(__file__).parent / "data"
        text = json.loads((data / "parser_nodes.json").read_text("utf-8"))[
            "nested-attributes"]["text"]
        written = data / "parent_written.rpxc"
        doc = IndexedDocument.from_string(text)
        doc.save(tmp_path / "now.rpxc")
        assert (tmp_path / "now.rpxc").read_bytes() == written.read_bytes()
        reopened = IndexedDocument.open(written)
        try:
            reopened.columns.validate()
            for query in ("$input//b[c]", "$input//d/text()",
                          "$input/a/@kind"):
                assert [serialize(n) for n in Engine(reopened).run(query)] \
                    == [serialize(n) for n in Engine(doc).run(query)] != []
        finally:
            reopened.close()

    def test_format_1_file_is_refused(self):
        """The file the format-1 build wrote from the same text has no
        path sections: it is refused, never read without them."""
        written = Path(__file__).parent / "data" / \
            "format1_parent_written.rpxc"
        with pytest.raises(StorageError) as err:
            ColumnarDocument.open(written)
        assert err.value.context["check"] == "version"
        assert "format version 1" in str(err.value)

    def test_open_without_verify(self, saved):
        _, path = saved
        reopened = ColumnarDocument.open(path, verify=False)
        reopened.validate()
        assert reopened.open_seconds >= 0.0
        reopened.close()

    def test_is_columnar_file(self, saved, tmp_path):
        _, path = saved
        assert is_columnar_file(path)
        xml = tmp_path / "plain.xml"
        xml.write_text(XML, encoding="utf-8")
        assert not is_columnar_file(xml)
        assert not is_columnar_file(tmp_path / "missing.rpxc")

    def test_save_is_atomic(self, saved, tmp_path):
        doc, path = saved
        # Overwriting an existing file goes through a rename; no
        # .tmp leftovers either way.
        doc.save(path)
        assert is_columnar_file(path)
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_threads_saving_to_one_path(self, saved, tmp_path):
        """Every save writes a temp file of its own: two threads saving
        one document to one path leave a whole file and no temp file."""
        doc, path = saved
        failures = []

        def save_often():
            try:
                for _ in range(50):
                    doc.save(path)
            except Exception as error:   # surfaced by the assert below
                failures.append(error)

        threads = [threading.Thread(target=save_often) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert failures == []
        reopened = ColumnarDocument.open(path)
        try:
            reopened.validate()
        finally:
            reopened.close()
        assert list(tmp_path.glob("*.tmp*")) == []

    def test_failed_rename_leaves_no_temp_file(self, saved, tmp_path,
                                               monkeypatch):
        doc, path = saved

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            doc.save(tmp_path / "other.rpxc")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["site.rpxc"]

    def test_close_is_idempotent(self, saved):
        _, path = saved
        reopened = ColumnarDocument.open(path)
        reopened.close()
        reopened.close()
        assert not reopened.is_mapped


def _expect_storage_error(path, *needles):
    with pytest.raises(StorageError) as err:
        ColumnarDocument.open(path)
    assert isinstance(err.value, ReproError)
    assert err.value.code == "REPRO-STORAGE"
    message = str(err.value)
    assert path.name in message
    for needle in needles:
        assert needle in message, (needle, message)


class TestCorruption:
    def test_truncation_at_many_boundaries(self, saved):
        _, path = saved
        data = path.read_bytes()
        for keep in (0, 3, 17, len(data) // 2, len(data) - 1):
            path.write_bytes(data[:keep])
            _expect_storage_error(path)

    def test_bad_magic(self, saved):
        _, path = saved
        data = path.read_bytes()
        path.write_bytes(b"NOPE" + data[4:])
        _expect_storage_error(path, "magic")

    def test_flipped_payload_byte_fails_checksum(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        _expect_storage_error(path, "corrupt")

    def test_unsupported_version(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 99)
        path.write_bytes(bytes(data))
        _expect_storage_error(path, "version 99")

    def test_foreign_byte_order(self, saved):
        _, path = saved
        data = bytearray(path.read_bytes())
        # The endianness marker as the opposite byte order would see it.
        data[6:8] = bytes(reversed(data[6:8]))
        path.write_bytes(bytes(data))
        _expect_storage_error(path, "byte order")

    def test_appended_garbage_is_detected(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes() + b"trailing junk")
        _expect_storage_error(path)

    def test_section_table_bit_flips(self, tmp_path):
        """The CRC covers the payload, not the section table: each of
        three bits flipped in every table byte gives the right answer
        or a StorageError — never another section's bytes read as a
        column, nor a raw exception."""
        query = "$input//*"
        expected = [serialize(n)
                    for n in Engine.from_xml(SITE_XML).run(query)]
        path = tmp_path / "site.rpxc"
        IndexedDocument.from_string(SITE_XML).save(path)
        data = path.read_bytes()
        header = struct.calcsize("<4sHHIIQII")
        count = struct.unpack_from("<I", data, 8)[0]
        flipped = tmp_path / "flipped.rpxc"
        wrong, checks = [], set()
        for index in range(header, header + 40 * count):
            for bit in (0x01, 0x08, 0x80):
                corrupt = bytearray(data)
                corrupt[index] ^= bit
                flipped.write_bytes(bytes(corrupt))
                try:
                    engine = Engine.from_columnar_file(str(flipped))
                except StorageError as err:
                    checks.add(err.context["check"])
                    continue
                try:
                    got = [serialize(n) for n in engine.run(query)]
                finally:
                    engine.document.close()
                if got != expected:
                    wrong.append((index, bit))
        assert wrong == []
        assert "section-table" in checks

    @pytest.mark.parametrize("path_dir, reason", [
        ((-1, -1, 0, 0, 2, 1), "a forward parent reference"),
        ((-1, -1, 0, 0, 1), "an odd length"),
        ((-1, -1, 0, 99), "a name id out of range"),
        ((0, 0, 0, 0), "no document point"),
    ])
    def test_bad_path_directory(self, tmp_path, path_dir, reason):
        """The path directory's shape is checked with or without the
        checksum pass: a bad one is a typed ``path-dir`` error."""
        columns = IndexedDocument.from_string(XML).columns
        columns.path_dir = array("i", path_dir)
        path = tmp_path / "bad.rpxc"
        columns.save(path)
        for verify in (False, True):
            with pytest.raises(StorageError) as err:
                ColumnarDocument.open(path, verify=verify)
            assert err.value.context["check"] == "path-dir", reason

    def test_not_a_file(self, tmp_path):
        with pytest.raises(StorageError):
            ColumnarDocument.open(tmp_path / "missing.rpxc")

    def test_xml_file_is_rejected_with_typed_error(self, tmp_path):
        xml = tmp_path / "doc.xml"
        xml.write_text("<a>" + "x" * 100 + "</a>", encoding="utf-8")
        _expect_storage_error(xml, "magic")


class TestEngineStoreSelection:
    def test_from_file_auto_detects(self, saved, tmp_path):
        doc, path = saved
        xml = tmp_path / "site.xml"
        xml.write_text(XML, encoding="utf-8")
        query = "count($input//person)"
        assert Engine.from_file(str(xml)).run(query) == [2]
        engine = Engine.from_file(str(path))
        assert engine.run(query) == [2]
        assert engine.document.columns.is_mapped
        assert not Engine.from_file(str(xml)).document.columns.is_mapped

    def test_catalog_columnar_entry(self, saved):
        from repro.serve import DocumentCatalog
        _, path = saved
        catalog = DocumentCatalog()
        catalog.add_columnar_file("site", str(path))
        catalog.add_file("auto", str(path))
        for name in ("site", "auto"):
            engine = catalog.engine(name)
            assert engine.document.columns.is_mapped
            assert engine.run("count($input//person)") == [2]


def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCliIndex:
    def test_index_verify_query_round_trip(self, tmp_path):
        xml = tmp_path / "m.xml"
        doc = member_document(150, depth=4, tag_count=4, seed=7)
        xml.write_text(serialize(doc.root), encoding="utf-8")
        rpxc = tmp_path / "m.rpxc"
        code, output = run_cli("index", str(xml), "-o", str(rpxc),
                               "--verify")
        assert code == 0
        assert "verified" in output and str(rpxc.name) in output
        expected_code, expected = run_cli(
            "query", "$input//t01/t02", "--doc", str(xml),
            "--format", "xml")
        got_code, got = run_cli(
            "query", "$input//t01/t02", "--doc", str(rpxc),
            "--format", "xml")
        assert expected_code == got_code == 0
        assert got == expected

    @pytest.mark.parametrize("column", ["path_id", "path_dir"])
    def test_index_verify_compares_the_path_columns(self, tmp_path,
                                                    monkeypatch, column):
        """``--verify`` holds the reopened file to the parsed columns,
        the path trie included."""
        xml = tmp_path / "d.xml"
        xml.write_text(XML, encoding="utf-8")
        save = ColumnarDocument.save

        def save_then_drift(columns, path):
            size = save(columns, path)
            drifted = array("i", getattr(columns, column))
            drifted[-1] += 1
            setattr(columns, column, drifted)
            return size

        monkeypatch.setattr(ColumnarDocument, "save", save_then_drift)
        code, output = run_cli("index", str(xml), "--verify")
        assert code == 1
        assert f"column {column!r} differs" in output

    def test_index_default_output_name(self, tmp_path):
        xml = tmp_path / "d.xml"
        xml.write_text(XML, encoding="utf-8")
        code, output = run_cli("index", str(xml))
        assert code == 0
        assert (tmp_path / "d.rpxc").exists()

    def test_query_corrupt_index_reports_typed_error(self, tmp_path):
        xml = tmp_path / "d.xml"
        xml.write_text(XML, encoding="utf-8")
        run_cli("index", str(xml))
        rpxc = tmp_path / "d.rpxc"
        data = bytearray(rpxc.read_bytes())
        data[-3] ^= 0x01
        rpxc.write_bytes(bytes(data))
        code, _ = run_cli("query", "count($input//person)",
                          "--doc", str(rpxc))
        assert code == 2
