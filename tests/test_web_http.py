"""HTTP model tests."""

import urllib.parse

import hypothesis.strategies as st
from hypothesis import given

from repro.web.http import (
    HttpRequest,
    HttpResponse,
    encode_query_string,
    parse_query_string,
)


class TestQueryString:
    def test_parse_simple(self):
        assert parse_query_string("a=1&b=2") == {"a": "1", "b": "2"}

    def test_parse_empty(self):
        assert parse_query_string("") == {}

    def test_parse_url_encoding(self):
        assert parse_query_string("q=a+b&r=c%26d") == {"q": "a b", "r": "c&d"}

    def test_last_duplicate_wins(self):
        assert parse_query_string("a=1&a=2") == {"a": "2"}

    def test_encode_sorts_keys(self):
        assert encode_query_string({"b": "2", "a": "1"}) == "a=1&b=2"

    def test_roundtrip(self):
        params = {"x": "hello world", "y": "1&2"}
        assert parse_query_string(encode_query_string(params)) == params

    # Names and values that are all-safe ASCII skip ``quote_plus``; the
    # bytes of every key (cache keys, bench request lists) must not move.
    @given(
        st.dictionaries(
            st.text() | st.text("az09_.-~ +%&=/"),
            st.text() | st.text("az09_.-~ +%&=/") | st.integers(),
            max_size=6,
        )
    )
    def test_encode_equals_the_urllib_form(self, params):
        quote = urllib.parse.quote_plus
        assert encode_query_string(params) == "&".join(
            f"{quote(str(k))}={quote(str(v))}" for k, v in sorted(params.items())
        )


class TestHttpRequest:
    def test_method_uppercased(self):
        assert HttpRequest("get", "/x").method == "GET"

    def test_query_string_merged_into_params(self):
        request = HttpRequest("GET", "/items?id=5&k=v", {"k": "override"})
        assert request.uri == "/items"
        assert request.params == {"id": "5", "k": "override"}

    def test_get_parameter_and_default(self):
        request = HttpRequest("GET", "/x", {"a": "1"})
        assert request.get_parameter("a") == "1"
        assert request.get_parameter("b") is None
        assert request.get_parameter("b", "dflt") == "dflt"

    def test_get_int(self):
        request = HttpRequest("GET", "/x", {"n": "7", "bad": "xyz"})
        assert request.get_int("n") == 7
        assert request.get_int("bad", 3) == 3
        assert request.get_int("missing") is None

    def test_cookies(self):
        request = HttpRequest("GET", "/x", cookies={"sid": "abc"})
        assert request.get_cookie("sid") == "abc"
        assert request.get_cookie("nope", "d") == "d"

    def test_cache_key_is_canonical(self):
        r1 = HttpRequest("GET", "/items", {"b": "2", "a": "1"})
        r2 = HttpRequest("GET", "/items?a=1&b=2")
        assert r1.cache_key() == r2.cache_key()

    def test_cache_key_without_params(self):
        assert HttpRequest("GET", "/plain").cache_key() == "/plain"

    def test_cache_key_differs_by_params(self):
        r1 = HttpRequest("GET", "/items", {"a": "1"})
        r2 = HttpRequest("GET", "/items", {"a": "2"})
        assert r1.cache_key() != r2.cache_key()

    def test_cache_key_built_once_per_request(self, monkeypatch):
        import repro.web.http as http

        calls = []
        encode = http.encode_query_string
        monkeypatch.setattr(
            http,
            "encode_query_string",
            lambda params: calls.append(1) or encode(params),
        )
        request = HttpRequest("GET", "/items", {"b": "2", "a": "1"})
        assert request.cache_key() == request.cache_key() == "/items?a=1&b=2"
        assert len(calls) == 1

    def test_cache_key_never_stale_after_mutation(self):
        request = HttpRequest("GET", "/items", {"a": "1"})
        assert request.cache_key() == "/items?a=1"
        request.params["a"] = "2"  # value changed in place
        assert request.cache_key() == "/items?a=2"
        request.params["b"] = "3"  # parameter added in place
        assert request.cache_key() == "/items?a=2&b=3"
        request.params.update({"b": "4"})
        assert request.cache_key() == "/items?a=2&b=4"
        del request.params["a"]
        assert request.cache_key() == "/items?b=4"
        request.params = {"c": "5"}  # rebound
        assert request.cache_key() == "/items?c=5"
        request.uri = "/other"
        assert request.cache_key() == "/other?c=5"
        request.params = {}
        assert request.cache_key() == "/other"

    def test_cache_key_memo_is_not_part_of_request_equality(self):
        r1 = HttpRequest("GET", "/items", {"a": "1"})
        r2 = HttpRequest("GET", "/items", {"a": "1"})
        r1.cache_key()
        assert r1 == r2


class TestHttpResponse:
    def test_write_accumulates(self):
        response = HttpResponse()
        response.write("a")
        response.write("b")
        assert response.body == "ab"

    def test_defaults(self):
        response = HttpResponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == "text/html"

    def test_replace_body(self):
        response = HttpResponse()
        response.write("old")
        response.replace_body("new")
        assert response.body == "new"

    def test_send_error(self):
        response = HttpResponse()
        response.send_error(404, "gone")
        assert response.status == 404
        assert "404" in response.body
        assert response.committed

    def test_reset(self):
        response = HttpResponse()
        response.write("x")
        response.set_status(500)
        response.reset()
        assert response.body == ""
        assert response.status == 200

    def test_cookies_and_headers(self):
        response = HttpResponse()
        response.add_cookie("sid", "1")
        response.set_header("X-Test", "v")
        assert response.cookies == {"sid": "1"}
        assert response.headers["X-Test"] == "v"
