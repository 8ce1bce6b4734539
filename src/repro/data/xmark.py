"""An XMark-shaped auction-site document generator.

The real XMark generator (xmlgen) is a C program; this module produces
documents with the same element hierarchy and relative fan-outs for the
parts the paper's experiments touch — ``site/people/person`` (with
optional ``emailaddress``, ``profile/interest``), regions with items,
open and closed auctions, and categories — scaled by a person count
instead of XMark's factor.  Content is deterministic per seed.  The
document is built as an :class:`~repro.xmltree.builder.E` tree, written
as XML text and parsed into columns: no node object is made.

Schema shape (per XMark):

.. code-block:: text

    site
    ├── regions/{africa,asia,europe,namerica}/item*
    │       item: location quantity name payment? description
    │             incategory* mailbox/mail*
    ├── categories/category*          category: name description
    ├── catgraph/edge*
    ├── people/person*                person: name emailaddress? phone?
    │       address? profile? watches?
    │       profile: interest* education? age?
    ├── open_auctions/open_auction*   open_auction: initial bidder* current
    │       itemref seller annotation quantity type interval
    └── closed_auctions/closed_auction*
            closed_auction: seller buyer itemref price date quantity type
"""

from __future__ import annotations

import random
from typing import List

from ..xmltree.builder import E, build_document
from ..xmltree.document import IndexedDocument

_FIRST_NAMES = ["John", "Mary", "Wang", "Aisha", "Pierre", "Elena", "Kofi",
                "Yuki", "Carlos", "Ingrid", "Ahmed", "Sofia"]
_LAST_NAMES = ["Smith", "Garcia", "Chen", "Okafor", "Dubois", "Novak",
               "Tanaka", "Larsen", "Costa", "Haddad"]
_WORDS = ["vintage", "rare", "antique", "mint", "classic", "limited",
          "edition", "signed", "original", "restored", "pristine", "boxed"]
_CATEGORIES = ["art", "music", "books", "coins", "stamps", "toys",
               "computers", "sports", "travel", "garden"]
_REGIONS = ["africa", "asia", "europe", "namerica"]


class _Builder:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def element(self, parent: E, name: str,
                text: str | None = None, **attributes: str) -> E:
        child = E(name)
        child.attributes.update(attributes)
        if text is not None:
            child.children.append(text)
        parent.children.append(child)
        return child

    def words(self, count: int) -> str:
        return " ".join(self.rng.choice(_WORDS) for _ in range(count))

    def person_name(self) -> str:
        return (f"{self.rng.choice(_FIRST_NAMES)} "
                f"{self.rng.choice(_LAST_NAMES)}")


def xmark_document(person_count: int = 200, seed: int = 19992001,
                   email_probability: float = 0.7) -> IndexedDocument:
    """Generate an XMark-shaped document.

    ``person_count`` scales everything else the way XMark's factor
    does: ~2 items, ~1 open auction and ~0.5 closed auctions per person,
    and one category per 20 people.
    """
    if person_count < 1:
        raise ValueError("person_count must be at least 1")
    builder = _Builder(seed)
    site = E("site")

    category_count = max(person_count // 20, 2)
    item_count = person_count * 2
    open_count = person_count
    closed_count = max(person_count // 2, 1)

    _add_regions(builder, site, item_count, category_count)
    _add_categories(builder, site, category_count)
    _add_catgraph(builder, site, category_count)
    _add_people(builder, site, person_count, email_probability)
    _add_open_auctions(builder, site, open_count, person_count, item_count)
    _add_closed_auctions(builder, site, closed_count, person_count,
                         item_count)
    return build_document(site)


def _add_regions(builder: _Builder, site: E, item_count: int,
                 category_count: int) -> None:
    rng = builder.rng
    regions = builder.element(site, "regions")
    region_elements = [builder.element(regions, name) for name in _REGIONS]
    for index in range(item_count):
        region = rng.choice(region_elements)
        item = builder.element(region, "item", id=f"item{index}")
        builder.element(item, "location", rng.choice(
            ["United States", "Germany", "Japan", "Brazil", "Kenya"]))
        builder.element(item, "quantity", str(rng.randint(1, 5)))
        builder.element(item, "name", builder.words(2))
        if rng.random() < 0.8:
            builder.element(item, "payment", rng.choice(
                ["Money order", "Creditcard", "Cash"]))
        description = builder.element(item, "description")
        builder.element(description, "text", builder.words(6))
        for _ in range(rng.randint(0, 2)):
            builder.element(item, "incategory",
                            category=f"category{rng.randrange(category_count)}")
        mailbox = builder.element(item, "mailbox")
        for _ in range(rng.randint(0, 2)):
            mail = builder.element(mailbox, "mail")
            builder.element(mail, "from", builder.person_name())
            builder.element(mail, "to", builder.person_name())
            builder.element(mail, "date", _date(rng))
            builder.element(mail, "text", builder.words(5))


def _add_categories(builder: _Builder, site: E,
                    category_count: int) -> None:
    categories = builder.element(site, "categories")
    for index in range(category_count):
        category = builder.element(categories, "category",
                                   id=f"category{index}")
        builder.element(category, "name",
                        _CATEGORIES[index % len(_CATEGORIES)])
        description = builder.element(category, "description")
        builder.element(description, "text", builder.words(4))


def _add_catgraph(builder: _Builder, site: E,
                  category_count: int) -> None:
    rng = builder.rng
    catgraph = builder.element(site, "catgraph")
    for _ in range(category_count):
        builder.element(catgraph, "edge",
                        **{"from": f"category{rng.randrange(category_count)}",
                           "to": f"category{rng.randrange(category_count)}"})


def _add_people(builder: _Builder, site: E, person_count: int,
                email_probability: float) -> None:
    rng = builder.rng
    people = builder.element(site, "people")
    for index in range(person_count):
        person = builder.element(people, "person", id=f"person{index}")
        name = builder.person_name()
        builder.element(person, "name", name)
        if rng.random() < email_probability:
            local = name.replace(" ", ".").lower()
            builder.element(person, "emailaddress",
                            f"mailto:{local}{index}@example.com")
        if rng.random() < 0.4:
            builder.element(person, "phone",
                            f"+{rng.randint(1, 99)} {rng.randint(100, 999)} "
                            f"{rng.randint(1000, 9999)}")
        if rng.random() < 0.5:
            address = builder.element(person, "address")
            builder.element(address, "street",
                            f"{rng.randint(1, 99)} {builder.words(1)} St")
            builder.element(address, "city", rng.choice(
                ["Antwerp", "Yorktown", "Tokyo", "Lagos", "Porto"]))
            builder.element(address, "country", rng.choice(
                ["Belgium", "United States", "Japan", "Nigeria", "Portugal"]))
        if rng.random() < 0.75:
            profile = builder.element(person, "profile",
                                      income=str(rng.randint(10, 120) * 1000))
            for _ in range(rng.randint(0, 3)):
                builder.element(profile, "interest",
                                category=rng.choice(_CATEGORIES))
            if rng.random() < 0.5:
                builder.element(profile, "education", rng.choice(
                    ["High School", "College", "Graduate School"]))
            if rng.random() < 0.6:
                builder.element(profile, "age", str(rng.randint(18, 80)))
        if rng.random() < 0.3:
            watches = builder.element(person, "watches")
            for _ in range(rng.randint(1, 3)):
                builder.element(watches, "watch",
                                open_auction=f"auction{rng.randrange(max(person_count, 1))}")


def _add_open_auctions(builder: _Builder, site: E,
                       open_count: int, person_count: int,
                       item_count: int) -> None:
    rng = builder.rng
    auctions = builder.element(site, "open_auctions")
    for index in range(open_count):
        auction = builder.element(auctions, "open_auction",
                                  id=f"auction{index}")
        initial = rng.randint(1, 200)
        builder.element(auction, "initial", f"{initial}.00")
        current = initial
        for _ in range(rng.randint(0, 4)):
            bidder = builder.element(auction, "bidder")
            builder.element(bidder, "date", _date(rng))
            builder.element(bidder, "time", _time(rng))
            builder.element(bidder, "personref",
                            person=f"person{rng.randrange(person_count)}")
            increase = rng.randint(1, 20)
            current += increase
            builder.element(bidder, "increase", f"{increase}.00")
        builder.element(auction, "current", f"{current}.00")
        builder.element(auction, "itemref",
                        item=f"item{rng.randrange(item_count)}")
        builder.element(auction, "seller",
                        person=f"person{rng.randrange(person_count)}")
        annotation = builder.element(auction, "annotation")
        builder.element(annotation, "author",
                        person=f"person{rng.randrange(person_count)}")
        builder.element(annotation, "description", builder.words(5))
        builder.element(auction, "quantity", str(rng.randint(1, 3)))
        builder.element(auction, "type", rng.choice(
            ["Regular", "Featured", "Dutch"]))
        interval = builder.element(auction, "interval")
        builder.element(interval, "start", _date(rng))
        builder.element(interval, "end", _date(rng))


def _add_closed_auctions(builder: _Builder, site: E,
                         closed_count: int, person_count: int,
                         item_count: int) -> None:
    rng = builder.rng
    auctions = builder.element(site, "closed_auctions")
    for _ in range(closed_count):
        auction = builder.element(auctions, "closed_auction")
        builder.element(auction, "seller",
                        person=f"person{rng.randrange(person_count)}")
        builder.element(auction, "buyer",
                        person=f"person{rng.randrange(person_count)}")
        builder.element(auction, "itemref",
                        item=f"item{rng.randrange(item_count)}")
        builder.element(auction, "price", f"{rng.randint(5, 500)}.00")
        builder.element(auction, "date", _date(rng))
        builder.element(auction, "quantity", str(rng.randint(1, 3)))
        builder.element(auction, "type", rng.choice(["Regular", "Featured"]))


def _date(rng: random.Random) -> str:
    return (f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/"
            f"{rng.randint(1998, 2006)}")


def _time(rng: random.Random) -> str:
    return f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00"


#: query pairs for the Figure 6 experiment: the child-axis form and the
#: semantically equivalent descendant-axis form (equivalence holds for
#: this generator's schema, where these element names appear at unique
#: paths).
XMARK_CHILD_DESCENDANT_PAIRS: List[tuple[str, str, str]] = [
    ("XMq1",
     "$input/site/people/person/name",
     "$input/descendant::person/name"),
    ("XMq2",
     "$input/site/people/person[emailaddress]/profile/interest",
     "$input/descendant::person[emailaddress]/descendant::interest"),
    ("XMq3",
     "$input/site/open_auctions/open_auction/bidder/increase",
     "$input/descendant::bidder/increase"),
    ("XMq4",
     "$input/site/closed_auctions/closed_auction/price",
     "$input/descendant::price"),
    ("XMq5",
     "$input/site/regions/*/item[payment]/name",
     "$input/descendant::item[payment]/name"),
]
