"""Community authorization at desk scale.

A community (virtual organization) runs one authority server holding its
member list, groups, grant table and admin meta-policy. Users authenticate
to it with delegation-credential chains and receive signed policy statements,
which resource services combine with their own site policy: the effective
rights of any request are the intersection of what the site grants the
community and what the community grants the user, minus per-user site
restrictions.
"""

from .assertions import (
    AssertionVerdict,
    PolicyAssertion,
    embed_in_proxy,
    extract_from_proxy,
    issue_assertion,
    issue_restricted_proxy,
    verify_assertion,
)
from .credentials import (
    CredentialChain,
    DelegationLink,
    EndEntityCredential,
    VerifiedChain,
    issue_eec,
    issue_proxy,
    make_ca,
    verify_chain,
)
from .keys import KeyMaterial, generate_keys
from .policy import (
    ACTIONS,
    AdminCapability,
    EnforcementDecision,
    Group,
    Right,
    SitePolicy,
    VOPolicyDatabase,
    apply_admin,
    decide,
    intersect_rights,
    user_rights,
)
from .statements import SignedStatement, sign_statement, verify_statement

__version__ = "0.1.0"

__all__ = [
    "ACTIONS",
    "AdminCapability",
    "AssertionVerdict",
    "CredentialChain",
    "DelegationLink",
    "EndEntityCredential",
    "EnforcementDecision",
    "Group",
    "KeyMaterial",
    "PolicyAssertion",
    "Right",
    "SignedStatement",
    "SitePolicy",
    "VOPolicyDatabase",
    "VerifiedChain",
    "apply_admin",
    "decide",
    "embed_in_proxy",
    "extract_from_proxy",
    "generate_keys",
    "intersect_rights",
    "issue_assertion",
    "issue_eec",
    "issue_proxy",
    "issue_restricted_proxy",
    "make_ca",
    "sign_statement",
    "user_rights",
    "verify_assertion",
    "verify_chain",
    "verify_statement",
]
