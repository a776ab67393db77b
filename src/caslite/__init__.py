"""Community authorization at desk scale.

A community (virtual organization) runs one authority server holding its
member list, groups, grant table and admin meta-policy. Users authenticate
to it with delegation-credential chains and receive signed policy statements,
which resource services combine with their own site policy: the effective
rights of any request are the intersection of what the site grants the
community and what the community grants the user, minus per-user site
restrictions.
"""

__version__ = "0.1.0"
